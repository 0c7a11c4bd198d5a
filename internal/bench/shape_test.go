package bench

import (
	"testing"
	"time"

	"aggify/internal/tpch"
)

// TestPaperShape is the headline regression test: on the per-invocation
// cursor-loop queries all three modes must return the same rows, the
// original must materialise its cursors into worktables, and Aggify and
// Aggify+ must touch no worktable at all (the shape behind Figure 9(a) and
// §10.4, which this engine makes exact). The logical reads are pinned too:
// Aggify saves exactly one read per worktable write, and on Q18 Aggify+
// reads more than Aggify. The timing ratios are logged, not asserted: the
// headline one is the repository benchmark's aggify_speedup.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs seconds of benchmarks")
	}
	env, err := LoadTPCH(0.005)
	if err != nil {
		t.Fatal(err)
	}
	run := func(q *tpch.WorkloadQuery, mode Mode) *Result {
		r, err := env.RunTPCH(q, mode, 0, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if r.TimedOut {
			t.Fatalf("%s %s timed out", q.ID, mode)
		}
		return r
	}
	for _, id := range []string{"Q2", "Q13", "Q18"} {
		q, _ := tpch.QueryByID(id)
		orig := run(q, Original)
		if orig.Stats.WorktableWrites == 0 {
			t.Errorf("%s: original wrote no worktable rows", id)
		}
		reads := map[Mode]int64{Original: orig.Stats.TotalReads()}
		for _, mode := range []Mode{Aggify, AggifyPlus} {
			r := run(q, mode)
			reads[mode] = r.Stats.TotalReads()
			if r.Checksum != orig.Checksum {
				t.Errorf("%s %s: checksum %x, original %x", id, mode, r.Checksum, orig.Checksum)
			}
			if r.Stats.WorktableWrites != 0 || r.Stats.WorktableReads != 0 {
				t.Errorf("%s %s: worktable writes=%d reads=%d, want none",
					id, mode, r.Stats.WorktableWrites, r.Stats.WorktableReads)
			}
			t.Logf("%s %s: %.1fx (orig=%v, %v)", id, mode,
				float64(orig.Elapsed)/float64(r.Elapsed), orig.Elapsed, r.Elapsed)
		}
		// §10.4: Aggify saves exactly the worktable reads of the rows the
		// cursor materialized, one read per worktable write.
		if saved := reads[Original] - reads[Aggify]; saved != orig.Stats.WorktableWrites {
			t.Errorf("%s: original reads %d - aggify reads %d = %d, want the original's %d worktable writes",
				id, reads[Original], reads[Aggify], saved, orig.Stats.WorktableWrites)
		}
		if reads[Aggify] > reads[Original] {
			t.Errorf("%s: aggify reads %d > original reads %d", id, reads[Aggify], reads[Original])
		}
		t.Logf("%s reads: original %d, aggify %d, aggify+ %d; worktable writes %d",
			id, reads[Original], reads[Aggify], reads[AggifyPlus], orig.Stats.WorktableWrites)
		// Table 2's inversion: on Q18, inlining the aggified UDF into the
		// query reads more than calling it.
		if id == "Q18" && reads[AggifyPlus] <= reads[Aggify] {
			t.Errorf("Q18: aggify+ reads %d <= aggify reads %d, want the paper's inversion",
				reads[AggifyPlus], reads[Aggify])
		}
	}
}

// TestFiguresSmoke exercises every table/figure generator end to end at a
// tiny scale.
func TestFiguresSmoke(t *testing.T) {
	cfg := Config{SF: 0.002, Scale: 0.1, Timeout: time.Minute, Reps: 1, Profile: DefaultConfig().Profile}
	if _, err := Table1(); err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func() (*Table, error){
		"fig9a":  func() (*Table, error) { return Fig9a(cfg) },
		"table2": func() (*Table, error) { return Table2(cfg) },
		"fig9b":  func() (*Table, error) { return Fig9b(cfg) },
		"fig9c":  func() (*Table, error) { return Fig9c(cfg) },
		"fig10a": func() (*Table, error) { return Fig10a(cfg, []int{5, 50}) },
		"fig10b": func() (*Table, error) { return Fig10b(cfg, []int{5, 50}) },
		"fig10c": func() (*Table, error) { return Fig10c(cfg, []int{30, 300}) },
		"fig11":  func() (*Table, error) { return Fig11(cfg, []int{10, 100}) },
	} {
		tab, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 || tab.Render() == "" {
			t.Fatalf("%s: empty table", name)
		}
	}
}
