package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare and the tests read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first quartile, median and third quartile of v by
// the same rule as Python's statistics.quantiles(v, n=4) (exclusive
// method), which is what the acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// verdict applies one metric's bound to two sets of runs. worse/better say
// set B's median left set A's by more than the bound; a spread (distance
// between quartiles over the median) wider than the bound on either side
// means the sets cannot resolve a difference of that size.
func verdict(a, b []float64, bound float64, better string) (string, float64, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	spread := 0.0
	for _, v := range [][]float64{a, b} {
		q1, m, q3 := quartiles(v)
		if s := ratio(q3-q1, m); s > spread {
			spread = s
		}
	}
	delta := ratio(mb-ma, ma) // > 0: B is larger
	if better == "higher" {
		delta = -delta
	}
	switch {
	case spread > bound:
		return "unresolved", delta, spread
	case delta > bound:
		return "worse", delta, spread
	case delta < -bound:
		return "better", delta, spread
	default:
		return "same", delta, spread
	}
}

// compareFiles prints one row per (workload, end-to-end metric) with the
// bound's verdict, and an exact-equality verdict for every count and
// model.* metric of traced runs made at the same seed. It returns an error
// when anything is worse, unresolved or different, so scripts can gate on
// it.
func compareFiles(specPath string, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d", len(files))
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var sets [2][]runRecord
	for i, f := range files {
		if sets[i], err = readRecords(f); err != nil {
			return err
		}
		if len(sets[i]) == 0 {
			return fmt.Errorf("%s: no runs", f)
		}
	}

	// collect lists the untraced runs' values per workload and metric.
	collect := func(recs []runRecord) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for n, v := range r.Metrics {
				out[r.Workload][n] = append(out[r.Workload][n], v.Value)
			}
		}
		return out
	}
	bad := 0
	a, b := collect(sets[0]), collect(sets[1])
	fmt.Printf("%-11s %-20s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "delta", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, delta, spread := verdict(va, vb, *m.Bound, m.Better)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Printf("%-11s %-20s %14.4f %14.4f %+7.2f%% %7.2f%% %6.1f%%  %s (n=%d,%d)\n",
				w.Name, m.Name, median(va), median(vb), 100*delta, 100*spread, 100**m.Bound, v, len(va), len(vb))
		}
	}

	// Exact metrics: every traced run of a (workload, seed) must agree.
	type key struct {
		workload string
		seed     uint64
	}
	exact := map[key]map[string]map[float64]bool{}
	defs := perLayerDefs()
	for _, set := range sets {
		for _, r := range set {
			if r.Trace != 1 {
				continue
			}
			k := key{r.Workload, r.Seed}
			if exact[k] == nil {
				exact[k] = map[string]map[float64]bool{}
			}
			for _, d := range defs {
				if v, ok := r.Metrics[d.Name]; d.exact && ok {
					if exact[k][d.Name] == nil {
						exact[k][d.Name] = map[float64]bool{}
					}
					exact[k][d.Name][v.Value] = true
				}
			}
		}
	}
	keys := make([]key, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	for _, k := range keys {
		var diff []string
		for n, vals := range exact[k] {
			if len(vals) > 1 {
				diff = append(diff, n)
			}
		}
		sort.Strings(diff)
		if len(diff) == 0 {
			fmt.Printf("%-11s seed %-20d %d counts and model.* identical\n", k.workload, k.seed, len(exact[k]))
			continue
		}
		bad += len(diff)
		for _, n := range diff {
			fmt.Printf("%-11s seed %-20d %s DIFFERENT: %v\n", k.workload, k.seed, n, keysOf(exact[k][n]))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics worse, unresolved or different", bad)
	}
	return nil
}

func keysOf(m map[float64]bool) []float64 {
	var out []float64
	for v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
