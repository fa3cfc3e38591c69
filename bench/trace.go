package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans
// of one session or chunk share Op; Parent indexes the span that caused
// this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanTotals is the time of every span of one name: Total is the spans'
// own duration, Self what is left after their children are taken out.
type spanTotals struct {
	Count       int
	Total, Self time.Duration
}

// totals sums the recorded spans by name. Children run inside their
// parent and one after another, so self time is the parent's duration
// minus its children's.
func (t *tracer) totals() map[string]spanTotals {
	out := make(map[string]spanTotals)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		a := out[s.Name]
		a.Count++
		a.Total += time.Duration(s.End - s.Start)
		a.Self += time.Duration(s.End - s.Start - child[i])
		out[s.Name] = a
	}
	return out
}

// durations returns every span duration of one name, in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write dumps the spans as JSON; see README.md for how to read them.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	header["spans"] = t.spans
	data, err := json.Marshal(header)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
