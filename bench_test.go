// Benchmark harness: one testing.B benchmark per paper table and figure
// (§10), plus ablation benches for the design choices DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full paper-style sweeps (with wider parameter ranges and rendered rows)
// come from cmd/aggify-bench. The scale factors here are laptop-sized; the
// shapes, not the absolute numbers, are the reproduction target (see
// EXPERIMENTS.md).
package aggify_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aggify"
	"aggify/internal/ast"
	"aggify/internal/bench"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/tpch"
	"aggify/internal/wire"
	"aggify/internal/workloads/applicability"
	"aggify/internal/workloads/realw"
	"aggify/internal/workloads/rubis"
)

const (
	benchSF    = 0.01
	benchScale = 0.5
)

func tpchEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.LoadTPCH(benchSF)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// runTPCH benchmarks one (query, mode) cell of Figure 9(a) / Table 2,
// reporting the logical reads Table 2 tabulates.
func runTPCH(b *testing.B, id string, mode bench.Mode) {
	env := tpchEnv(b)
	q, ok := tpch.QueryByID(id)
	if !ok {
		b.Fatalf("no query %s", id)
	}
	b.ResetTimer()
	var reads int64
	for i := 0; i < b.N; i++ {
		r, err := env.RunTPCH(q, mode, 0, 5*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if r.TimedOut {
			b.Fatal("timed out")
		}
		reads = r.Stats.TotalReads()
	}
	b.ReportMetric(float64(reads), "logical-reads")
}

// ----- Table 1 -----

func BenchmarkTable1Applicability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := applicability.ScanAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != 3 {
			b.Fatal("bad scan")
		}
	}
}

// ----- Figure 9(a) + Table 2 (same runs; reads reported as a metric) -----

func BenchmarkFig9a(b *testing.B) {
	for _, id := range []string{"Q2", "Q13", "Q14", "Q18", "Q19", "Q21"} {
		for _, mode := range []bench.Mode{bench.Original, bench.Aggify, bench.AggifyPlus} {
			b.Run(fmt.Sprintf("%s/%s", id, mode), func(b *testing.B) {
				runTPCH(b, id, mode)
			})
		}
	}
}

func BenchmarkTable2LogicalReads(b *testing.B) {
	// Table 2 is regenerated from the same executions as Figure 9(a); this
	// bench exercises the counter path explicitly on the densest query.
	runTPCH(b, "Q18", bench.Original)
}

// ----- Figure 9(b) -----

func BenchmarkFig9b(b *testing.B) {
	eng, err := bench.LoadRubis(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range rubis.Scenarios() {
		for _, mode := range []bench.Mode{bench.Original, bench.Aggify} {
			b.Run(fmt.Sprintf("%s/%s", sc.Name, mode), func(b *testing.B) {
				var last *bench.ClientResult
				for i := 0; i < b.N; i++ {
					r, err := bench.RunRubisScenario(eng, sc, mode, wire.LAN, benchScale)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(float64(last.Meter.BytesToClient), "bytes-to-client")
				// ns/op measures client compute only; the figure's quantity
				// adds the deterministic network time.
				b.ReportMetric(float64(last.Elapsed.Microseconds()), "virtual-elapsed-us")
			})
		}
	}
}

// ----- Figure 9(c) -----

func BenchmarkFig9c(b *testing.B) {
	env, err := bench.LoadRealW(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range realw.Loops() {
		for _, mode := range []bench.Mode{bench.Original, bench.Aggify} {
			b.Run(fmt.Sprintf("%s/%s", l.ID, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := env.RunLoop(l, mode, 0, 5*time.Minute)
					if err != nil {
						b.Fatal(err)
					}
					if r.TimedOut {
						b.Fatal("timed out")
					}
				}
			})
		}
	}
}

// ----- Figure 10(a): Q2 iteration sweep -----

func BenchmarkFig10a(b *testing.B) {
	env := tpchEnv(b)
	q, _ := tpch.QueryByID("Q2")
	maxParts := tpch.SizesFor(benchSF).Parts
	for _, n := range []int{20, 200, maxParts} {
		for _, mode := range []bench.Mode{bench.Original, bench.Aggify, bench.AggifyPlus} {
			b.Run(fmt.Sprintf("iters=%d/%s", n, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := env.RunTPCH(q, mode, n, 5*time.Minute)
					if err != nil {
						b.Fatal(err)
					}
					if r.TimedOut {
						b.Fatal("timed out")
					}
				}
			})
		}
	}
}

// ----- Figure 10(b): MinCostSupplier client program + data movement -----

func BenchmarkFig10b(b *testing.B) {
	env := tpchEnv(b)
	for _, n := range []int{200, 2000} {
		for _, mode := range []bench.Mode{bench.Original, bench.Aggify} {
			b.Run(fmt.Sprintf("iters=%d/%s", n, mode), func(b *testing.B) {
				var last *bench.ClientResult
				for i := 0; i < b.N; i++ {
					r, err := bench.RunMinCostClient(env, n, mode, wire.LAN)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(float64(last.Meter.BytesToClient), "bytes-to-client")
				b.ReportMetric(float64(last.Elapsed.Microseconds()), "virtual-elapsed-us")
			})
		}
	}
}

// ----- Figure 10(c): Cumulative ROI, 50 columns -----

func BenchmarkFig10c(b *testing.B) {
	eng, err := bench.LoadROI(30000)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{300, 30000} {
		for _, mode := range []bench.Mode{bench.Original, bench.Aggify} {
			b.Run(fmt.Sprintf("iters=%d/%s", n, mode), func(b *testing.B) {
				var last *bench.ClientResult
				for i := 0; i < b.N; i++ {
					r, err := bench.RunROI(eng, n, mode, wire.LAN)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(float64(last.Meter.BytesToClient), "bytes-to-client")
				b.ReportMetric(float64(last.Elapsed.Microseconds()), "virtual-elapsed-us")
			})
		}
	}
}

// ----- Figure 11: loop L1 sweep -----

func BenchmarkFig11(b *testing.B) {
	env, err := bench.LoadRealW(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	l, _ := realw.LoopByID("L1")
	maxIters := realw.SizesFor(benchScale).Activities
	for _, n := range []int{100, 1000, maxIters} {
		for _, mode := range []bench.Mode{bench.Original, bench.Aggify} {
			b.Run(fmt.Sprintf("iters=%d/%s", n, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.RunLoop(l, mode, n, 5*time.Minute); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ----- Ablations -----

// BenchmarkAblationWorktable isolates the disk-backed worktable cost the
// paper attributes to cursors (§2.3): the same cursor loop with tempdb-style
// spill files versus purely in-memory materialization.
func BenchmarkAblationWorktable(b *testing.B) {
	env := tpchEnv(b)
	q, _ := tpch.QueryByID("Q18")
	for _, disk := range []bool{true, false} {
		name := "disk"
		if !disk {
			name = "memory"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sess := env.Eng.NewSession()
				sess.InMemoryWorktables = !disk
				driver := parser.MustParse(q.Driver(500))[0].(*ast.QueryStmt).Query
				if _, _, err := sess.Query(driver, sess.Ctx(nil, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDecorrelation isolates the planner rewrite that gives
// Aggify+ its set-oriented plans (Q13 with and without decorrelation).
func BenchmarkAblationDecorrelation(b *testing.B) {
	env := tpchEnv(b)
	q, _ := tpch.QueryByID("Q13")
	for _, on := range []bool{true, false} {
		name := "decorrelated"
		if !on {
			name = "apply-per-row"
		}
		var disable plan.RuleSet
		if !on {
			disable = plan.RuleDecorrelate
		}
		b.Run(name, func(b *testing.B) {
			// The plan cache keys include planner options, so both
			// variants coexist in the shared engine.
			for i := 0; i < b.N; i++ {
				r, err := env.RunDriverSession(q.Driver(0), bench.AggifyPlus, 5*time.Minute,
					func(sess *engine.Session) { sess.Opts.DisableRules |= disable })
				if err != nil {
					b.Fatal(err)
				}
				if r.TimedOut {
					b.Fatal("timed out")
				}
			}
		})
	}
}

// BenchmarkAblationCompiledAggregate compares the compiled aggregate bodies
// (the analogue of the paper emitting C#) against the tree-walking
// interpreter on the same generated aggregate.
func BenchmarkAblationCompiledAggregate(b *testing.B) {
	src := `
create table vals (v int);
GO
create function sumAll() returns float as
begin
  declare @v int;
  declare @s float = 0;
  declare c cursor for select v from vals;
  open c;
  fetch next from c into @v;
  while @@fetch_status = 0
  begin
    set @s = @s + @v * 2;
    fetch next from c into @v;
  end
  close c;
  deallocate c;
  return @s;
end`
	build := func(interpreted bool) *aggify.DB {
		db := aggify.Open()
		if err := db.Exec(src); err != nil {
			b.Fatal(err)
		}
		var ins strings.Builder
		ins.WriteString("insert into vals values (0)")
		for i := 1; i < 500; i++ {
			fmt.Fprintf(&ins, ", (%d)", i)
		}
		for j := 0; j < 20; j++ {
			if err := db.Exec(ins.String()); err != nil {
				b.Fatal(err)
			}
		}
		res, err := db.AggifyFunction("sumAll", aggify.TransformOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if interpreted {
			// Re-register the generated aggregate through the interpreter-
			// only path.
			aggName := strings.ToLower("sumall_c_agg1")
			def, ok := db.Engine().AggregateSource(aggName)
			if !ok {
				b.Fatalf("no aggregate source %s (have %v)", aggName, res.AggregateSources)
			}
			if err := db.Engine().RegisterAggregateSpec(interp.InterpretedAggSpec(def, false)); err != nil {
				b.Fatal(err)
			}
			db.Engine().InvalidatePlans()
		}
		return db
	}
	for _, interpreted := range []bool{false, true} {
		name := "compiled"
		if interpreted {
			name = "interpreted"
		}
		db := build(interpreted)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Call("sumAll"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFetchSize shows the client batching trade-off: smaller
// fetch sizes mean more round trips for the original cursor loops.
func BenchmarkAblationFetchSize(b *testing.B) {
	eng, err := bench.LoadROI(30000)
	if err != nil {
		b.Fatal(err)
	}
	for _, fetchSize := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("fetch=%d", fetchSize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunROIWithFetchSize(eng, 3000, fetchSize, bench.Original, wire.LAN); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOrderEnforcement compares Eq. 6's enforced streaming
// aggregate (sort below) with the unordered hash path on the same
// order-insensitive aggregation.
func BenchmarkAblationOrderEnforcement(b *testing.B) {
	db := aggify.Open()
	if err := db.Exec(`
create table series (k int, v float);
GO
create aggregate FoldAgg(@v float) returns float as
begin
  fields (@acc float, @isInitialized bit);
  init begin set @isInitialized = false; end
  accumulate begin
    if @isInitialized = false begin set @acc = 0; set @isInitialized = true; end
    set @acc = @acc + @v;
  end
  terminate begin return @acc; end
end`); err != nil {
		b.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("insert into series values (0, 0.5)")
	for i := 1; i < 1000; i++ {
		fmt.Fprintf(&ins, ", (%d, %g)", i, float64(i%97)/7)
	}
	for j := 0; j < 10; j++ {
		if err := db.Exec(ins.String()); err != nil {
			b.Fatal(err)
		}
	}
	cases := map[string]string{
		"unordered": "select FoldAgg(q.v) from (select v from series) q",
		"enforced":  "select FoldAgg(q.v) from (select v from series order by k) q option (order enforced)",
	}
	for name, sql := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryScalar(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
