package main

import (
	"math"
	"slices"
	"strings"
)

// samples is a set of durations in nanoseconds, saturated to 32 bits (4.29 s)
// so a 20-second window of a quarter million requests a second fits in 20 MB.
type samples []uint32

func (s *samples) add(ns int64) {
	switch {
	case ns < 0:
		ns = 0
	case ns > math.MaxUint32:
		ns = math.MaxUint32
	}
	*s = append(*s, uint32(ns))
}

// quantile returns the nearest-rank q-quantile of sorted, in nanoseconds.
func quantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return float64(sorted[i])
}

// tailQuantile returns the highest of p90, p99, p999, ... that has at least
// ten of n samples beyond it, with its name; ok is false below 100 samples.
// Under nearest rank, exactly floor(n / 10^k) samples lie beyond the
// (1 - 10^-k)-quantile.
func tailQuantile(n int) (q float64, name string, ok bool) {
	for k, pow := 1, 10; n/pow >= 10; k, pow = k+1, pow*10 {
		q, name, ok = 1-1/float64(pow), "p"+strings.Repeat("9", k), true
	}
	if name == "p9" {
		name = "p90"
	}
	return q, name, ok
}

// sliceLen is the number of consecutive samples in each slice a measured
// window is cut into for latency_p99_us.
const sliceLen = 1000

// sliced is a measured window's samples in completion order, cut into
// slices of sliceLen consecutive samples.
type sliced []samples

func (w *sliced) add(ns int64) {
	if n := len(*w); n == 0 || len((*w)[n-1]) == sliceLen {
		*w = append(*w, make(samples, 0, sliceLen))
	}
	(*w)[len(*w)-1].add(ns)
}

func (w sliced) all() samples {
	var s samples
	for _, sub := range w {
		s = append(s, sub...)
	}
	return s
}

// p99us returns the median, over full slices, of each slice's p99, in µs:
// the tail of a typical run of 1,000 consecutive operations, the tenth
// slowest of them. On a shared VM the host stalls both processes for
// milliseconds at a time, for seconds on end in some runs and not in others,
// and the daemons collect garbage many times a second; a whole-window p99
// follows the stalls and a p99 of longer slices flips with the share of
// slices a collection lands in. On ingest-paced over the same 7 runs the
// median of 100 ms slices ranged 467–1,451 µs and of 1,000-event slices
// 230–428 µs. The whole window's p99 and the deepest percentile it supports
// are stamped beside the result.
func (w sliced) p99us() float64 {
	var p99s []float64
	for _, sub := range w {
		if len(sub) < sliceLen {
			continue
		}
		sorted := slices.Clone(sub)
		slices.Sort(sorted)
		p99s = append(p99s, quantile(sorted, 0.99)/1e3)
	}
	return median(p99s)
}

// dist summarises a sample set for the result stamp: count, median, p99 and
// the highest percentile with ten samples beyond it.
type dist struct {
	Count  int     `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	Tail   string  `json:"tail,omitempty"`
	TailUs float64 `json:"tail_us,omitempty"`
}

// summarize sorts s in place and summarises it.
func summarize(s samples) dist {
	slices.Sort(s)
	d := dist{Count: len(s), P50us: quantile(s, 0.50) / 1e3, P99us: quantile(s, 0.99) / 1e3}
	if q, name, ok := tailQuantile(len(s)); ok {
		d.Tail, d.TailUs = name, quantile(s, q)/1e3
	}
	return d
}

// median returns the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
