package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around a call into that layer. Parent is the ID of the span that caused it
// (-1 for a root); Rep and Batch are -1 where they do not apply.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Batch    int    `json:"batch"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced pass: every method is a no-op, so code shared by both passes
// needs no branches.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, rep, batch int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNs: now, EndNs: -1,
		Parent: parent, Workload: t.workload, Rep: rep, Batch: batch})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	d := now - t.spans[id].StartNs
	t.mu.Unlock()
	return time.Duration(d)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spansOf copies the spans recorded for one workload (a span's parent is
// always of its own workload, so the subset is closed under Parent).
func (t *tracer) spansOf(workload string) []span {
	var out []span
	for _, s := range t.snapshot() {
		if s.Workload == workload {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (children may overlap each other, as
// concurrent tickets do; the covered part is the union of their intervals).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		edge := s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// sumByName totals duration and self time over all spans of each name.
func sumByName(spans []span) (dur, self map[string]int64) {
	st := selfTimes(spans)
	dur, self = map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		dur[s.Name] += s.EndNs - s.StartNs
		self[s.Name] += st[s.ID]
	}
	return dur, self
}

// traceFile is the on-disk form of trace.json.
type traceFile struct {
	Schema string `json:"schema"`
	Spans  []span `json:"spans"`
}

const traceSchema = "glign.benchtrace/v1"

func writeTrace(path string, spans []span) error {
	raw, err := json.Marshal(traceFile{Schema: traceSchema, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
