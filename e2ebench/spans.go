package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
)

// span is one timed call into a layer's public entry point, recorded by the
// benchmark around the call. batch is shared by every span of one request
// batch or event batch at every level of the ladder; parent is the id of the
// span one level up for the same batch (0 at the top).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Batch  uint64 `json:"batch"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanIDs hands out span ids; one run shares it across goroutines.
type spanIDs struct{ n atomic.Uint64 }

// spanLog is one goroutine's in-memory span buffer.
type spanLog struct {
	ids   *spanIDs
	spans []span
}

func (l *spanLog) add(name string, batch, parent uint64, start, end int64) uint64 {
	id := l.ids.n.Add(1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Batch: batch, Name: name, Start: start, End: end})
	return id
}

// total returns the summed duration and count of the named spans.
func total(spans []span, name string) (ns int64, n int) {
	for _, s := range spans {
		if s.Name == name {
			ns += s.dur()
			n++
		}
	}
	return ns, n
}

// writeSpans fills in each span's self time (its duration minus the
// durations of its children: the same batch one level down) and writes the
// spans as JSON lines ordered by id.
func writeSpans(path string, logs ...*spanLog) (int, error) {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.ID, b.ID) })
	child := map[uint64]int64{}
	for _, s := range all {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range all {
		s.Self = s.dur() - child[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}
