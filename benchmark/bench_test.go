package main

import (
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sizesOf gives the test access to a workload's fixed sizes, to shrink them.
func sizesOf(t *testing.T, w workload) *sizes {
	switch v := w.(type) {
	case *loopWorkload:
		return &v.sizes
	case *chattyWorkload:
		return &v.sizes
	case *adhocWorkload:
		return &v.sizes
	case *oltpWorkload:
		return &v.sizes
	}
	t.Fatalf("no sizes for %T", w)
	return nil
}

// TestBenchmarkJSONMatchesRegistry: every workload and metric BENCHMARK.json
// names exists in the harness registry with the same unit, and the other way
// round; names and units are well formed.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	spec, err := loadBenchSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not well formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var have []string
	for _, w := range spec.Workloads {
		name(w.Name)
		have = append(have, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if got, want := strings.Join(have, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, registry %q", got, want)
	}

	units := func(reg []metric) map[string]string {
		m := map[string]string{}
		for _, x := range reg {
			m[x.Name] = x.Unit
		}
		return m
	}
	e2e, layer := units(endToEnd), units(perLayer)
	if len(spec.EndToEnd) != len(e2e) || len(spec.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, the registry %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(e2e), len(layer))
	}
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if u, ok := e2e[m.Name]; !ok || u != m.Unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %s [%s]: registry has unit %q (present %v)", m.Name, m.Unit, u, ok)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if u, ok := layer[m.Name]; !ok || u != m.Unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s [%s]: registry has unit %q (present %v)", m.Name, m.Unit, u, ok)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default %d", spec.RunSeconds, defaultSeconds)
	}
	if e2e["setup_s"] != "s" {
		t.Error("setup_s must be an end-to-end metric in seconds")
	}
}

// TestOperationListIsAFunctionOfTheSeed: the same seed yields a
// byte-identical operation list twice, another seed another list.
func TestOperationListIsAFunctionOfTheSeed(t *testing.T) {
	render := func(w workload, seed int64) string {
		w.reseed(seed) // prepare would also build the oracles
		var b strings.Builder
		for i := 0; i < 500; i++ {
			b.WriteString(w.op(i).String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	for i := range workloads() {
		a, b, c := render(workloads()[i], 7), render(workloads()[i], 7), render(workloads()[i], 8)
		if a != b {
			t.Errorf("%s: two lists from seed 7 differ", workloadNames()[i])
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 give the same list", workloadNames()[i])
		}
	}
}

// TestSmoke runs every workload at tiny sizes against an in-process server
// over real loopback TCP, then the traced passes, and requires every answer
// to check out and every registered metric to be emitted with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.spec().name, func(t *testing.T) {
			sz := sizesOf(t, w)
			sz.warmup, sz.traceOps = 34, 40
			if err := w.prepare(3); err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			db, err := openInproc(w, filepath.Join(tmp, "server.data"))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Engine().CloseData()
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := db.NewServer()
			go srv.Serve(lis)
			defer srv.Close()

			s := &session{addr: lis.Addr().String()}
			defer s.close()
			if err := s.warm(w); err != nil {
				t.Fatal(err)
			}
			timed := s.drive(w, pass{from: sz.warmup, count: 60, conns: sz.conns})
			if timed.failed > 0 || timed.attempted != 60 {
				t.Fatalf("%d of %d operations failed: %v", timed.failed, timed.attempted, timed.firstErr)
			}
			e2e := &result{Correct: true, Metrics: map[string]value{}}
			e2e.setEndToEnd([]float64{0.5}, 100, timed)
			requireMetrics(t, e2e, endToEnd)

			obs, err := s.observe(w, func() (map[string]float64, error) { return nil, nil })
			if err != nil {
				t.Fatal(err)
			}
			e := &env{root: tmp, tmp: tmp}
			traced := &result{Correct: true, Metrics: map[string]value{}}
			if err := e.layerResult(w, 3, obs, traced); err != nil {
				t.Fatal(err)
			}
			// At these sizes the timing checks are noise; the answers are not.
			if traced.Failed > 0 {
				t.Errorf("traced run: %d operations failed: %v", traced.Failed, traced.notes)
			}
			requireMetrics(t, traced, perLayer)
			if _, err := os.Stat(filepath.Join(tmp, "benchmark", "out", w.spec().name+".trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

func requireMetrics(t *testing.T, r *result, reg []metric) {
	t.Helper()
	if len(r.Metrics) != len(reg) {
		t.Errorf("%d metrics emitted, %d registered", len(r.Metrics), len(reg))
	}
	for _, m := range reg {
		if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("metric %s [%s] emitted as %+v (present %v)", m.Name, m.Unit, v, ok)
		}
	}
}
