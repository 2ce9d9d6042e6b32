package main

// Baseline kinds. Seven sweeps can be printed, recorded as a baseline file and
// re-measured against one: the throughput suite (BENCH_v*.json), the latency,
// overload, memory-pressure, rack-scale and failover sweeps
// (LATENCY_/OVERLOAD_/MEMPRESSURE_/SCALE_/FAILOVER_v*.json), and the
// event-digest matrix (EVENTS_v*.json). Each is one row of sweeps.kinds;
// print, write and compare are written once, over the point type's own
// identity (Key) and exact-equality contract (VirtualEq). The six sweeps
// share one point type, bench.Point, so a file is told apart by what it
// holds: its version, its workload scale, and its key set, which must be
// exactly the kind's fixed enumeration.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/gctrace"
)

// sweepPoint is what a kind's point type must provide: a configuration
// identity and bit-exact equality over the virtual (deterministic) fields,
// host wall time excluded.
type sweepPoint[P any] interface {
	Key() string
	VirtualEq(P) bool
}

// sweepKind is what the mode dispatch needs of a kind, whatever its point
// type.
type sweepKind interface {
	print(stdout io.Writer) error
	write(path string) error
	compare(path string, stdout, stderr io.Writer) error
	// accepts reports why path is not a baseline file of this kind (nil: it
	// is one).
	accepts(path string) error
}

// kind is one baseline kind over point type P.
type kind[P sweepPoint[P]] struct {
	label   string // names the points in reports
	version int    // of the baseline file this run measures
	// scale is the workload scale recorded in the file envelope; zero (and
	// omitted from the file) for the kinds with fixed workload shapes.
	scale float64
	// points enumerates the kind's fixed configuration without measuring
	// it: a baseline file of this kind holds exactly these keys.
	points  func() ([]P, error)
	measure func() ([]P, error)
	render  func([]P) string // the print-mode table
}

// kindModes are the modes that have a kind, i.e. that -baseline/-compare
// apply to: the keys of sweeps.kinds.
var kindModes = []string{modeThroughput, "-latency", "-overload", "-mempressure", "-rackscale", "-failover", "-events"}

// sweeps is what the flags selected: how to run a sweep (opt: the figure
// modes read all of it, the kinds its Workers, Par and Progress) and one
// configuration per kind. A baseline run carries no sweep knob (flagUses),
// so for it these are each kind's fixed configuration.
type sweeps struct {
	opt         bench.Options
	gcs         []string // latency collector modes (bench.GCModes); a baseline run measures both
	overload    bench.OverloadSweep
	mempressure bench.MempressureSweep
	rackscale   bench.ScaleSweep
	failover    bench.FailoverSweep
}

// kinds is the kind table, by mode.
func (s sweeps) kinds() map[string]sweepKind {
	workers, par, progress := s.opt.Workers, s.opt.Par, s.opt.Progress
	return map[string]sweepKind{
		// The throughput suite has no print mode (no mode flag reaches it
		// without -baseline/-compare), hence no render.
		modeThroughput: kind[bench.Point]{label: "virtual-time", version: 3, scale: bench.BaselineScale,
			points:  func() ([]bench.Point, error) { return bench.BaselinePoints(), nil },
			measure: func() ([]bench.Point, error) { return bench.MeasureBaseline(workers, par, progress) }},
		"-latency": kind[bench.Point]{label: "latency", version: 2,
			points: func() ([]bench.Point, error) {
				gcs, err := bench.GCModes("both")
				return bench.LatencyPointsGC(gcs), err
			},
			measure: func() ([]bench.Point, error) { return bench.MeasureLatencyGC(s.gcs, workers, par, progress) },
			render:  bench.RenderLatency},
		"-overload": kind[bench.Point]{label: "overload", version: 3,
			points:  func() ([]bench.Point, error) { return bench.OverloadPoints(bench.DefaultOverloadSweep()), nil },
			measure: func() ([]bench.Point, error) { return bench.MeasureOverload(s.overload, workers, par, progress) },
			render:  bench.RenderOverload},
		"-mempressure": kind[bench.Point]{label: "memory-pressure", version: 3,
			points:  func() ([]bench.Point, error) { return bench.MempressurePoints(bench.DefaultMempressureSweep()), nil },
			measure: func() ([]bench.Point, error) { return bench.MeasureMempressure(s.mempressure, workers, par, progress) },
			render:  func(pts []bench.Point) string { return bench.RenderMempressure(s.mempressure, pts) }},
		"-rackscale": kind[bench.Point]{label: "rack-scale", version: 1, scale: s.rackscale.Scale,
			points:  func() ([]bench.Point, error) { return bench.ScalePoints(bench.DefaultScaleSweep()) },
			measure: func() ([]bench.Point, error) { return bench.MeasureScale(s.rackscale, workers, par, progress) },
			render:  bench.RenderScale},
		"-failover": kind[bench.Point]{label: "failover", version: 3,
			points:  func() ([]bench.Point, error) { return bench.FailoverPoints(bench.DefaultFailoverSweep()) },
			measure: func() ([]bench.Point, error) { return bench.MeasureFailover(s.failover, workers, par, progress) },
			render:  bench.RenderFailover},
		"-events": kind[gctrace.EventsPoint]{label: "event-digest", version: 2,
			points:  func() ([]gctrace.EventsPoint, error) { return gctrace.EventsPoints(), nil },
			measure: func() ([]gctrace.EventsPoint, error) { return gctrace.MeasureEvents(workers, progress) },
			render:  gctrace.RenderEvents},
	}
}

// baselineFile is the on-disk envelope shared by every kind.
type baselineFile[P any] struct {
	Version   int     `json:"version"`
	Scale     float64 `json:"scale,omitempty"`
	GoVersion string  `json:"go_version"`
	Date      string  `json:"date"`
	Points    []P     `json:"points"`
}

// print measures the sweep and prints its table.
func (k kind[P]) print(stdout io.Writer) error {
	pts, err := k.measure()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, k.render(pts))
	return nil
}

// write measures the sweep and records it as a baseline file.
func (k kind[P]) write(path string) error {
	pts, err := k.measure()
	if err != nil {
		return err
	}
	data, err := k.encode(pts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// encode is the baseline file write records for pts.
func (k kind[P]) encode(pts []P) ([]byte, error) {
	data, err := json.MarshalIndent(baselineFile[P]{
		Version:   k.version,
		Scale:     k.scale,
		GoVersion: runtime.Version(),
		Date:      time.Now().UTC().Format("2006-01-02"),
		Points:    pts,
	}, "", "  ")
	return append(data, '\n'), err
}

// read parses a stored baseline of this kind. A file of another version,
// workload scale or kind (its keys are not exactly this kind's) is rejected
// here, before any measurement time is spent; so is a field no point type
// has, which would otherwise read as zero.
func (k kind[P]) read(path string) (want baselineFile[P], err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return want, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		return want, fmt.Errorf("parse %s as a %s baseline: %w", path, k.label, err)
	}
	if want.Version != k.version {
		return want, fmt.Errorf("%s is a version-%d baseline; this run measures the version-%d %s points", path, want.Version, k.version, k.label)
	}
	if want.Scale != k.scale {
		return want, fmt.Errorf("%s records scale %g; this binary measures scale %g", path, want.Scale, k.scale)
	}
	pts, err := k.points()
	if err != nil {
		return want, err
	}
	return want, sameKeys(path, k.label, pts, want.Points)
}

// sameKeys reports why a file's points are not exactly a kind's
// enumeration: a point the kind does not have or that the file holds twice,
// or one the file lacks.
func sameKeys[P sweepPoint[P]](path, label string, kind, file []P) error {
	left := make(map[string]bool, len(kind))
	for _, p := range kind {
		left[p.Key()] = true
	}
	for _, p := range file {
		if !left[p.Key()] {
			return fmt.Errorf("%s holds %q, which is not among the %s points (or is there twice)", path, p.Key(), label)
		}
		delete(left, p.Key())
	}
	for _, p := range kind {
		if left[p.Key()] {
			return fmt.Errorf("%s lacks the %s point %q", path, label, p.Key())
		}
	}
	return nil
}

func (k kind[P]) accepts(path string) error {
	_, err := k.read(path)
	return err
}

// compare re-measures the stored baseline and fails on any drift in the
// virtual fields of any point — the CI gate that pins the simulation's
// deterministic results across PRs. read has checked that the file holds
// exactly the points a baseline run measures.
func (k kind[P]) compare(path string, stdout, stderr io.Writer) error {
	want, err := k.read(path)
	if err != nil {
		return err
	}
	got, err := k.measure()
	if err != nil {
		return err
	}
	wantPts := make(map[string]P, len(want.Points))
	for _, p := range want.Points {
		wantPts[p.Key()] = p
	}
	drift := 0
	for _, p := range got {
		if w := wantPts[p.Key()]; !p.VirtualEq(w) {
			if d, ok := any(p).(interface{ Divergence(P) string }); ok {
				fmt.Fprintf(stderr, "gcbench: %s drifted: %s\n", p.Key(), d.Divergence(w))
			} else {
				fmt.Fprintf(stderr, "gcbench: %s drifted:\n  baseline %+v\n  got      %+v\n", p.Key(), w, p)
			}
			drift++
		}
	}
	if drift > 0 {
		return fmt.Errorf("%d %s point(s) drifted vs %s", drift, k.label, path)
	}
	fmt.Fprintf(stdout, "gcbench: all %d %s points match %s\n", len(got), k.label, path)
	return nil
}
