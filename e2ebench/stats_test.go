package main

import "testing"

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		name string
		q    float64
	}{
		{99, "", 0},
		{100, "p90", 0.9},
		{999, "p90", 0.9},
		{1000, "p99", 0.99},
		{9999, "p99", 0.99},
		{10000, "p999", 0.999},
		{2_500_000, "p99999", 0.99999},
	}
	for _, c := range cases {
		q, name, ok := tailQuantile(c.n)
		if ok != (c.name != "") || name != c.name || (ok && q != c.q) {
			t.Errorf("tailQuantile(%d) = %v %q %v, want %v %q", c.n, q, name, ok, c.q, c.name)
			continue
		}
		if !ok {
			continue
		}
		// Under nearest rank the quantile is sample ceil(q·n); count what lies beyond.
		sorted := make([]uint32, c.n)
		for i := range sorted {
			sorted[i] = uint32(i)
		}
		beyond := c.n - 1 - int(quantile(sorted, q))
		if beyond < 10 {
			t.Errorf("n=%d %s: %d samples beyond, want at least 10", c.n, name, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 100}, {0.1, 10}, {0.11, 20}, {0, 10}, {1, 100}} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestSamplesSaturate(t *testing.T) {
	var s samples
	s.add(-5)
	s.add(1 << 40)
	if s[0] != 0 || s[1] != 1<<32-1 {
		t.Errorf("samples = %v, want [0 %d]", s, uint32(1<<32-1))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

func TestSlicedP99IsMedianOfSliceTails(t *testing.T) {
	var w sliced
	// Three full slices whose p99s are 989, 1,989 and 2,989 ns, plus a partial
	// slice that must not count.
	for s := range 3 {
		for i := range sliceLen {
			w.add(int64(s*1000 + i))
		}
	}
	w.add(1 << 30)
	if len(w) != 4 || len(w.all()) != 3*sliceLen+1 {
		t.Fatalf("%d slices holding %d samples, want 4 and %d", len(w), len(w.all()), 3*sliceLen+1)
	}
	if got := w.p99us(); got != 1.989 {
		t.Errorf("p99us = %v, want 1.989 (the middle slice's p99)", got)
	}
}
