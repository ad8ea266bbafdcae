package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Parent is the
// index of the enclosing span in the same recorder, -1 for a root; the
// spans of one replayed request share ReqID.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ReqID   int    `json:"req_id"`
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine: the in-process replay is sequential by design, so a
// span's children are exactly the spans begun while it was open.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(name string, req int) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, ReqID: req,
		StartNS: time.Since(r.epoch).Nanoseconds()})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	r.spans[id].EndNS = time.Since(r.epoch).Nanoseconds()
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
}

// time runs fn inside a span.
func (r *recorder) time(name string, req int, fn func()) {
	id := r.begin(name, req)
	fn()
	r.end(id)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// layerMedians groups spans by name and returns the median duration and
// median self time of each name, in microseconds.
func layerMedians(spans []span) (total, self map[string]float64, count map[string]int) {
	selfNS := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.EndNS-s.StartNS)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(selfNS[i])/1e3)
	}
	total, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	for name, d := range durs {
		total[name], self[name], count[name] = median(d), median(selfs[name]), len(d)
	}
	return total, self, count
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
