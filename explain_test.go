package aggify_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"aggify"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// timeRe matches the wall-clock annotations in EXPLAIN ANALYZE output; they
// are the only non-deterministic part of the tree and get normalized before
// the golden comparison.
var timeRe = regexp.MustCompile(`time=[^ )]+`)

func runExplain(t *testing.T, sql string) string {
	t.Helper()
	return runExplainDB(t, newDemoDB(t), sql)
}

func runExplainDB(t *testing.T, db *aggify.DB, sql string) string {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var b strings.Builder
	for _, r := range rows.Data {
		if len(r) != 1 {
			t.Fatalf("explain row width %d", len(r))
		}
		b.WriteString(r[0].Str())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExplainAnalyzeGolden locks down the EXPLAIN and EXPLAIN ANALYZE output
// shape against a golden file (counters included; wall-clock times
// normalized). Regenerate with: go test -run TestExplainAnalyzeGolden -update .
func TestExplainAnalyzeGolden(t *testing.T) {
	const query = `select s_name, count(*) as n
from supplier, partsupp
where ps_suppkey = s_suppkey and s_suppkey >= 10
group by s_name
order by s_name`

	var b strings.Builder
	b.WriteString("-- EXPLAIN\n")
	b.WriteString(runExplain(t, "EXPLAIN "+query))
	b.WriteString("\n-- EXPLAIN ANALYZE\n")
	b.WriteString(timeRe.ReplaceAllString(runExplain(t, "EXPLAIN ANALYZE "+query), "time=X"))

	// A rewrite-pass plan: the selective predicate above the derived table is
	// pushed inside and becomes an index seek; the `rewrites:` header and the
	// [rw:rule] annotations are part of the pinned shape.
	const pushQuery = `select q.ps_suppkey, q.ps_supplycost
from (select ps_partkey, ps_suppkey, ps_supplycost from partsupp) q
where q.ps_partkey = 1`
	b.WriteString("\n-- EXPLAIN (rewrite pushdown)\n")
	b.WriteString(runExplain(t, "EXPLAIN "+pushQuery))
	b.WriteString("\n-- EXPLAIN ANALYZE (rewrite pushdown)\n")
	b.WriteString(timeRe.ReplaceAllString(runExplain(t, "EXPLAIN ANALYZE "+pushQuery), "time=X"))

	// Predicate paths: the scan takes the leading kernel conjuncts itself
	// ([filter: bound]: three of three rows read, two emitted); a conjunct
	// it cannot take names why ([generic: ...]), and a kernel after it runs
	// in a FilterOp ([bound]); HAVING mixes both ([bound+residual]).
	const predQuery = `select ps_suppkey, count(*) as n
from partsupp
where ps_supplycost between 3 and 6 and ps_suppkey > ps_partkey and ps_partkey in (1, 2)
group by ps_suppkey
having count(*) >= 1 and count(*) < ps_suppkey + 100`
	b.WriteString("\n-- EXPLAIN (predicate paths)\n")
	b.WriteString(runExplain(t, "EXPLAIN "+predQuery))
	b.WriteString("\n-- EXPLAIN ANALYZE (predicate paths)\n")
	b.WriteString(timeRe.ReplaceAllString(runExplain(t, "EXPLAIN ANALYZE "+predQuery), "time=X"))

	// A BETWEEN on an indexed key is one range seek: it reads the 50 rows it
	// returns, not the 200 of the table.
	partDB := aggify.Open()
	var part strings.Builder
	part.WriteString("create table part (p_partkey int, p_name varchar(20));\ncreate index pk_p on part(p_partkey);\ninsert into part values ")
	for k := 1; k <= 200; k++ {
		if k > 1 {
			part.WriteString(", ")
		}
		fmt.Fprintf(&part, "(%d, 'part %d')", k, k)
	}
	if err := partDB.Exec(part.String()); err != nil {
		t.Fatal(err)
	}
	const betweenQuery = `select p_partkey from part where p_partkey between 101 and 150`
	b.WriteString("\n-- EXPLAIN (range seek by BETWEEN)\n")
	b.WriteString(runExplainDB(t, partDB, "EXPLAIN "+betweenQuery))
	b.WriteString("\n-- EXPLAIN ANALYZE (range seek by BETWEEN)\n")
	b.WriteString(timeRe.ReplaceAllString(runExplainDB(t, partDB, "EXPLAIN ANALYZE "+betweenQuery), "time=X"))
	got := b.String()

	golden := filepath.Join("testdata", "explain_analyze.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestExplainAnalyzeCountersNonZero asserts the analyze tree actually carries
// runtime counters (not just the static shape).
func TestExplainAnalyzeCountersNonZero(t *testing.T) {
	out := runExplain(t, "EXPLAIN ANALYZE select ps_partkey, minCostSupp(ps_partkey) from partsupp order by ps_partkey")
	if !strings.Contains(out, "rows=") || !strings.Contains(out, "reads=") {
		t.Fatalf("missing runtime counters:\n%s", out)
	}
	if !strings.Contains(out, "-- stats:") {
		t.Fatalf("missing session stats footer:\n%s", out)
	}
	if strings.Contains(out, "reads=0\n-- stats") {
		t.Fatalf("root operator accrued no reads:\n%s", out)
	}
}
