// Package workload implements the paper's benchmark programs (§4.1) against
// the simulated Manticore runtime: Barnes-Hut, Raytracer, Quicksort, SMVM,
// and DMM, plus a synthetic allocation-churn benchmark. Each benchmark has a
// plain-Go sequential reference used by the tests to validate results.
//
// Sizes are scaled down from the paper (the simulator charges every memory
// operation); the paper's sizes are reachable through the scale parameter.
package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Result is one benchmark execution.
type Result struct {
	// ElapsedNs is the virtual makespan.
	ElapsedNs int64
	// Check is a deterministic checksum of the output, identical across
	// vproc counts and equal to the sequential reference's checksum.
	Check uint64
	// Stats aggregates runtime statistics.
	Stats core.VPStats
}

// Spec names a benchmark and how to run it.
type Spec struct {
	Name string
	// Paper describes the paper's workload for documentation.
	Paper string
	// Run executes the benchmark on a fresh runtime at the given scale
	// (1.0 = the default reduced size; the paper's size is noted per
	// benchmark).
	Run func(rt *core.Runtime, scale float64) Result
	// MaxObjectWords is the payload words of the largest object Run
	// allocates at a scale. The CLIs reject a scale whose largest object a
	// run's chunks or fresh nurseries cannot hold
	// (core.Config.CheckObjectWords); Run panics on one.
	MaxObjectWords func(scale float64) int
}

// All returns the benchmark suite in the paper's presentation order.
func All() []Spec {
	return []Spec{
		{Name: "dmm", Paper: "dense 600x600 matrix multiply", Run: RunDMM, MaxObjectWords: dmmMaxObject},
		{Name: "raytracer", Paper: "512x512 ray-traced image", Run: RunRaytracer, MaxObjectWords: rtMaxObject},
		{Name: "quicksort", Paper: "NESL quicksort of 10,000,000 ints", Run: RunQuicksort, MaxObjectWords: ropeMaxObject},
		{Name: "barnes-hut", Paper: "400,000-body Plummer, 20 iterations", Run: RunBarnesHut, MaxObjectWords: bhMaxObject},
		{Name: "smvm", Paper: "1,091,362-element sparse matrix x 16,614 vector", Run: RunSMVM, MaxObjectWords: smvmMaxObject},
		{Name: "synthetic", Paper: "allocation churn (synthetic)", Run: RunSynthetic, MaxObjectWords: synMaxObject},
		{Name: "server", Paper: "message-passing server over CML channels (beyond the paper)", Run: RunServer, MaxObjectWords: srvMaxObject},
	}
}

// ByName returns a benchmark spec.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// f2w and w2f pack floats into heap words.
func f2w(f float64) uint64 { return math.Float64bits(f) }
func w2f(w uint64) float64 { return math.Float64frombits(w) }

// fnv1a folds a word into a running FNV-1a hash; used for checksums.
func fnv1a(h, w uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= (w >> (8 * i)) & 0xFF
		h *= 1099511628211
	}
	return h
}

// scaled returns max(1, round(base*scale)).
func scaled(base int, scale float64) int {
	n := int(float64(base)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// newRand returns the workload generators' stream for seed: core.Rand
// started at seed|1, without NewRand's scramble.
func newRand(seed uint64) *core.Rand {
	x := core.Rand(seed | 1)
	return &x
}
