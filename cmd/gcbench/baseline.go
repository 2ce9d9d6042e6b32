package main

// Baseline kinds. Seven sweeps can be printed, recorded as a baseline file and
// re-measured against one: the throughput suite (BENCH_v*.json), the latency,
// overload, memory-pressure, rack-scale and failover sweeps
// (LATENCY_/OVERLOAD_/MEMPRESSURE_/SCALE_/FAILOVER_v*.json), and the
// event-digest matrix (EVENTS_v*.json); an eighth kind, the host-allocation
// gate (HOSTALLOC_v*.json), is recorded and compared but not printed. Each
// is one row of kinds: a fixed point list, and how to measure and render it.
// print, write and compare are written once, over the point type's own
// identity (Key) and gate contract (VirtualEq): exact equality for the
// simulation kinds, within the recorded bound for host allocation. The six
// sweeps share one point type,
// bench.Point, so a file is told apart by what it holds: its version, its
// workload scale, and its key set, which must be exactly the kind's
// enumeration. That is how -compare finds the kind of the file it is given
// (identify).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/gctrace"
)

// sweepPoint is what a kind's point type must provide: a configuration
// identity and the gate's contract between a run and the recorded point —
// bit-exact equality over the virtual (deterministic) fields, host wall time
// excluded, or for host allocation no growth past the recorded bound.
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
	// it: a baseline file of this kind holds exactly these keys, and
	// measure runs them.
	points  func() []P
	measure func(pts []P) ([]P, error)
	render  func([]P) string // the print-mode table
}

// kindModes are the modes that have a kind, i.e. that -baseline/-compare
// apply to: the keys of kinds, in the order identify asks them.
var kindModes = []string{modeThroughput, "-latency", "-overload", "-mempressure", "-rackscale", "-failover", "-events", modeHostAlloc}

// kinds is the kind table, by mode; each kind measures its points on opt's
// Workers and Progress.
func kinds(opt bench.Options) map[string]sweepKind {
	measure := func(pts []bench.Point) ([]bench.Point, error) {
		return bench.Measure(pts, opt.Workers, opt.Progress)
	}
	return map[string]sweepKind{
		// The throughput suite has no print mode (no mode flag reaches it
		// without -baseline/-compare), hence no render.
		modeThroughput: kind[bench.Point]{label: "virtual-time", version: 4, scale: bench.BaselineScale,
			points: bench.BaselinePoints, measure: measure},
		"-latency": kind[bench.Point]{label: "latency", version: 2,
			points: bench.LatencyPoints, measure: measure, render: bench.RenderLatency},
		"-overload": kind[bench.Point]{label: "overload", version: 3,
			points: bench.OverloadPoints, measure: measure, render: bench.RenderOverload},
		"-mempressure": kind[bench.Point]{label: "memory-pressure", version: 3,
			points: bench.MempressurePoints, measure: measure, render: bench.RenderMempressure},
		"-rackscale": kind[bench.Point]{label: "rack-scale", version: 1, scale: bench.BaselineScale,
			points: bench.ScalePoints, measure: measure, render: bench.RenderScale},
		"-failover": kind[bench.Point]{label: "failover", version: 3,
			points: bench.FailoverPoints, measure: measure, render: bench.RenderFailover},
		"-events": kind[gctrace.EventsPoint]{label: "event-digest", version: 5,
			points: gctrace.EventsPoints,
			measure: func(pts []gctrace.EventsPoint) ([]gctrace.EventsPoint, error) {
				return gctrace.MeasureEvents(pts, opt.Workers, opt.Progress)
			},
			render: gctrace.RenderEvents},
		// Host allocation counts are process-wide: its points run serially
		// whatever the worker count (gcbench rejects -j above 1 for it).
		// No mode flag reaches it, hence no render.
		modeHostAlloc: kind[bench.HostAllocPoint]{label: "host-allocation", version: 5,
			points: bench.HostAllocPoints,
			measure: func(pts []bench.HostAllocPoint) ([]bench.HostAllocPoint, error) {
				return bench.MeasureHostAlloc(pts, opt.Progress)
			}},
	}
}

// identify is the mode of the one kind whose read accepts path, by version,
// workload scale and exact key set. A file that no kind accepts is an error
// giving each kind's reason, one that several accept an error naming them;
// nothing is measured.
func identify(ks map[string]sweepKind, path string) (string, error) {
	if _, err := os.Stat(path); err != nil {
		return "", err
	}
	var accepted, why []string
	for _, mode := range kindModes {
		if err := ks[mode].accepts(path); err != nil {
			why = append(why, err.Error())
		} else {
			accepted = append(accepted, mode)
		}
	}
	switch len(accepted) {
	case 1:
		return accepted[0], nil
	case 0:
		return "", fmt.Errorf("%s is no kind's baseline:\n  %s", path, strings.Join(why, "\n  "))
	}
	return "", fmt.Errorf("%s is a baseline of %s alike", path, strings.Join(accepted, ", "))
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
	pts, err := k.measure(k.points())
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, k.render(pts))
	return nil
}

// write measures the sweep and records it as a baseline file.
func (k kind[P]) write(path string) error {
	pts, err := k.measure(k.points())
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
		return want, fmt.Errorf("%s records scale %g; the %s points are at scale %g", path, want.Scale, k.label, k.scale)
	}
	return want, sameKeys(path, k.label, k.points(), want.Points)
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
	got, err := k.measure(k.points())
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
