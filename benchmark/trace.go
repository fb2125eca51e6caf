package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (the engine is not instrumented here).
// Spans of one statement or transaction share Stmt.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Stmt   int64  `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at the end. A
// nil *tracer is the untraced pass: begin and end do nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

func (t *tracer) begin(name string, parent int, stmt int64) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMS returns every finished span's duration by name.
func (t *tracer) durationsMS() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimesMS is each span's duration minus what its children cover,
// summed by name: where the time of the traced statements went.
func (t *tracer) selfTimesMS() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-childNS[i]) / 1e6
	}
	return out
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// childDurationsMS returns the durations of the spans named child whose
// parent span is named parent.
func (t *tracer) childDurationsMS(parent, child string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == child && s.Parent >= 0 && t.spans[s.Parent].Name == parent {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
