package main

import (
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuickPass runs every workload for three rounds, traced and untraced,
// with scaled-down probes, and holds what the program emits against
// BENCHMARK.json and the benchmark contract's limits.
func TestQuickPass(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 5 {
		t.Errorf("%d workloads, want 2..5", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDefs := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program defines %d", kind, len(got), len(want))
		}
		byName := map[string]specMetric{}
		for _, m := range got {
			byName[m.Name] = m
		}
		for _, d := range want {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %q unit %q: not a legal name or unit", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("%s %q: name used twice", kind, d.Name)
			}
			seen[d.Name] = true
			m, ok := byName[d.Name]
			switch {
			case !ok:
				t.Errorf("%s %q: missing from BENCHMARK.json", kind, d.Name)
			case m.Unit != d.Unit || m.Better != d.Better:
				t.Errorf("%s %q: BENCHMARK.json says %s/%s, the program %s/%s", kind, d.Name, m.Unit, m.Better, d.Unit, d.Better)
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, d.Name, m.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	checkDefs("end_to_end", spec.EndToEnd, endToEndDefs, true)
	checkDefs("per_layer", spec.PerLayer, perLayerDefs(), false)

	ws := workloads()
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(ws), len(spec.Workloads))
	}
	probes := runProbes(true)
	for i := range ws {
		w := &ws[i]
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
		m, err := measure(w, runOptions{
			seed: 7, rounds: 3, trace: true, quick: true,
			traceOut: filepath.Join(t.TempDir(), "trace.json"),
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(m.tl.failures) > 0 {
			t.Errorf("%d of %d points failed, first: %s", len(m.tl.failures), m.tl.attempted, m.tl.failures[0])
		}
		e2e, pl := m.endToEnd(), m.perLayer(probes)
		for kind, c := range map[string]struct {
			got  map[string]metricValue
			want []metricDef
		}{"end_to_end": {e2e, endToEndDefs}, "per_layer": {pl, perLayerDefs()}} {
			if len(c.got) != len(c.want) {
				t.Errorf("%s %s: emitted %d metrics, want %d", w.name, kind, len(c.got), len(c.want))
			}
			for _, d := range c.want {
				if v, ok := c.got[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s %s %q: emitted %+v (present %v), want unit %s", w.name, kind, d.Name, v, ok, d.Unit)
				}
			}
		}
		for name, v := range e2e {
			if v.Value <= 0 {
				t.Errorf("%s %s = %v: end-to-end metrics are never 0", w.name, name, v.Value)
			}
		}
		if windows := pl["vtime.span.windows"].Value; (windows > 0) != w.spans {
			t.Errorf("%s: vtime.span.windows = %v, spans allowed: %v", w.name, windows, w.spans)
		}
		if cov := pl["bench.point_coverage"].Value; cov < 0.95 {
			t.Errorf("%s: point spans cover %.3f of a round, want >= 0.95", w.name, cov)
		}
		for _, p := range w.points {
			if pl["bench.point_ms_p50."+p.label].Value <= 0 {
				t.Errorf("%s: no traced time for point %s", w.name, p.label)
			}
		}
	}
}

// TestVerdict pins -compare's four outcomes.
func TestVerdict(t *testing.T) {
	tight := []float64{100, 100.5, 101, 100.2, 99.8}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", tight, shift(tight, 1.02), "lower", "same"},
		{"worse", tight, shift(tight, 1.10), "lower", "worse"},
		{"better", tight, shift(tight, 0.90), "lower", "better"},
		{"higher is better", tight, shift(tight, 0.90), "higher", "worse"},
		{"unresolved", []float64{80, 90, 100, 110, 120}, shift(tight, 1.10), "lower", "unresolved"},
	} {
		if got, _, _ := verdict(c.a, c.b, 0.05, c.better); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
