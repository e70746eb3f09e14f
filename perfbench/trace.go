package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// span is one benchmark-side interval around a call into a layer (or a
// wait between two such calls). Times are nanoseconds on the run's
// monotonic clock. Spans of one block share trace = obs.TraceID(stream,
// block); parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     uint64
	Parent uint64
	Trace  uint64
	Name   string
	Start  int64
	End    int64
}

// recorder collects spans; it is used from one goroutine at a time.
type recorder struct {
	next  uint64
	spans []span
}

// add records a span and returns its ID.
func (r *recorder) add(name string, trace, parent uint64, start, end int64) uint64 {
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return r.next
}

// layerOf is the module a span name belongs to: the text before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of its interval that its children cover
// (overlapping children count once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[layerOf(s.Name)] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [start, end) the intervals cover.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// traceSampleMod keeps the JSONL small: only traces whose ID is a multiple
// of it are written. Self times use every span.
const traceSampleMod = 32

// spanLine is the JSONL encoding of a span.
type spanLine struct {
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"span"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes the sampled spans as JSONL to path, creating its
// directory, and returns how many lines it wrote.
func writeSpans(path string, spans []span) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, s := range spans {
		if s.Trace%traceSampleMod != 0 {
			continue
		}
		if err := enc.Encode(spanLine{Name: s.Name, Trace: s.Trace, ID: s.ID, Parent: s.Parent, StartNS: s.Start, EndNS: s.End}); err != nil {
			f.Close()
			return n, fmt.Errorf("trace output: %w", err)
		}
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("trace output: %w", err)
	}
	return n, nil
}
