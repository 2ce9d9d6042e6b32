package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer. Spans of one point share its label; Parent is the
// index of the enclosing span (-1 for a round).
type span struct {
	Name    string `json:"name"`
	Point   string `json:"point,omitempty"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds pay one nil check per boundary.
type tracer struct {
	t0       time.Time
	spans    []span
	gcEvents [core.NumEventKinds]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name, point string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Point: point, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
}

func (s span) ns() int64 { return s.EndNs - s.StartNs }

// selfNs returns each span's duration minus the part its children cover.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.ns()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ns()
		}
	}
	return self
}

// byName sums durations and self times per span name.
func (t *tracer) byName() (total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	for i, ns := range t.selfNs() {
		total[t.spans[i].Name] += t.spans[i].ns()
		self[t.spans[i].Name] += ns
	}
	return total, self
}

// pointCoverage is the smallest share of a round span covered by its point
// spans.
func (t *tracer) pointCoverage() float64 {
	covered := map[int]int64{}
	for _, s := range t.spans {
		if s.Name == "point" {
			covered[s.Parent] += s.ns()
		}
	}
	min := 1.0
	for i, s := range t.spans {
		if s.Name == "round" && s.ns() > 0 {
			if c := float64(covered[i]) / float64(s.ns()); c < min {
				min = c
			}
		}
	}
	return min
}

// durations lists the durations of the spans with the given name and point
// label ("" matches any label), in milliseconds.
func (t *tracer) durations(name, point string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (point == "" || s.Point == point) {
			out = append(out, float64(s.ns())/1e6)
		}
	}
	return out
}

// perRoundMs sums, per traced round, the spans with the given name that lie
// directly under one of the round's points, in milliseconds.
func (t *tracer) perRoundMs(name string) []float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[t.spans[s.Parent].Parent] += float64(s.ns()) / 1e6
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// write stores the spans and GC event counts as JSON.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	events := map[string]int64{}
	for k, n := range t.gcEvents {
		events[core.EventKind(k).String()] = n
	}
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		GCEvents map[string]int64 `json:"gc_events"`
		Spans    []span           `json:"spans"`
	}{workload, events, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
