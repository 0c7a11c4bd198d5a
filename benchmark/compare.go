package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same code on the same seed.
var exactCounts = []string{"client.round_trips_per_op", "wire.bytes_per_op", "storage.logical_reads_per_op",
	"storage.worktable_pages_per_op", "interp.fetch_iters_per_op", "core.loops_rewritten"}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4) does
// (the exclusive method); it needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median (0 when
// there are too few runs to tell).
func spread(vs []float64) float64 {
	if len(vs) < 2 || median(vs) == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per (workload, end-to-end metric), the two medians,
// their ratio with its base, and a verdict against the benchmark's bound:
// "regression" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's own spread exceeds the bound, else "ok".
// It returns the exit code: 1 on any regression, or when b failed more
// operations than a.
func compareFiles(pathA, pathB string) int {
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadBenchSpec(root)
	if err != nil {
		fatal(err)
	}
	a, err := readResults(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Printf("a = %s (%s)\nb = %s (%s)\n\n", pathA, a.Host.Commit, pathB, b.Host.Commit)
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s %7s %6s  %s\n", "workload", "metric", "median a", "median b", "b/a", "iqr a", "iqr b", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.valuesOf(w.Name, m.Name), b.valuesOf(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-20s missing from one side\n", w.Name, m.Name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regression"
				code = 1
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %9.4f %7.3f %7.3f %6.2f  %s  (base %.4f %s, n=%d/%d)\n",
				w.Name, m.Name, ma, mb, mb/ma, sa, sb, m.Bound, verdict, ma, m.Unit, len(va), len(vb))
		}
		fa, fb := failures(a, w.Name), failures(b, w.Name)
		if fb > fa {
			fmt.Printf("%-14s failed operations rose from %d to %d\n", w.Name, fa, fb)
			code = 1
		}
		for _, name := range exactCounts {
			va, vb := a.valuesOf(w.Name, name), b.valuesOf(w.Name, name)
			if len(va) > 0 && len(vb) > 0 && va[0] != vb[0] {
				fmt.Printf("%-14s %-34s exact count differs: %v vs %v (first seed of each)\n", w.Name, name, va[0], vb[0])
			}
		}
	}
	return code
}

// failures counts failed operations and incorrect runs of a workload.
func failures(f *resultsFile, workload string) int {
	n := 0
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		n += r.Failed
		if !r.Correct {
			n++
		}
	}
	return n
}
