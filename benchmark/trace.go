package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of a traced run: a call from the benchmark
// into a layer's public function, or a child synthesised from what that
// call returned (one per exec phase, one per plan stage). Times are host
// nanoseconds since the tracer's epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at exit. A
// nil *tracer records nothing, so the untraced reps run the same body
// code and pay one nil check per call.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
}

const noSpan = -1

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Start: time.Since(t.epoch).Nanoseconds(),
	})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// child adds a synthesised span of durNS under parent, starting offNS
// after the parent's start, and returns its id. The layers report how
// long a phase took on the host, not when it ran; phases of one call
// run back to back, so callers lay them out in order.
func (t *tracer) child(parent int, name string, offNS, durNS int64) int {
	if t == nil {
		return noSpan
	}
	id := len(t.spans)
	start := t.spans[parent].Start + offNS
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Start: start, End: start + durNS,
	})
	return id
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once, and only inside the parent).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanSum adds up the durations of the spans that keep selects.
func spanSum(spans []span, keep func(span) bool) int64 {
	var sum int64
	for _, s := range spans {
		if keep(s) {
			sum += s.dur()
		}
	}
	return sum
}

// writeTrace stores the spans as dir/trace.<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace."+workload+".json"), raw, 0o644)
}
