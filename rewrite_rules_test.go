package aggify_test

import (
	"strings"
	"testing"

	"aggify"
	"aggify/internal/plan"
)

// rewriteHeader returns the EXPLAIN `rewrites:` header for sql under the
// given rule mask (empty string when the pass left the query untouched),
// plus the query's result rows rendered one per line.
func rewriteHeader(t *testing.T, db *aggify.DB, disabled plan.RuleSet, sql string) (string, []string) {
	t.Helper()
	sess := db.Session()
	old := sess.Opts.DisableRules
	sess.Opts.DisableRules = disabled
	defer func() { sess.Opts.DisableRules = old }()

	out := runExplainDB(t, db, "EXPLAIN "+sql)
	header := ""
	if first, _, ok := strings.Cut(out, "\n"); ok && strings.HasPrefix(first, "rewrites:") {
		header = first
	}
	return header, queryRows(t, db, sql)
}

func queryRows(t *testing.T, db *aggify.DB, sql string) []string {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rowStrings(rows)
}

// rowStrings renders each row as its values joined by "|".
func rowStrings(rows *aggify.Rows) []string {
	out := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRewriteRuleToggles exercises each logical rewrite rule individually:
// a query known to fire the rule must report it in the EXPLAIN `rewrites:`
// header, disabling just that rule's bit must silence it, and the results
// must be identical either way.
func TestRewriteRuleToggles(t *testing.T) {
	db := newDemoDB(t)
	cases := []struct {
		rule string
		bit  plan.RuleSet
		sql  string
	}{
		{"fold_const", plan.RuleFoldConst,
			"select s_name from supplier where 1 = 1 and s_suppkey >= 10 order by s_name"},
		{"push_filter", plan.RulePushFilter,
			"select q.ps_suppkey from (select ps_partkey, ps_suppkey from partsupp) q where q.ps_partkey = 1 order by ps_suppkey"},
		{"push_filter_decor", plan.RulePushFilterDecor,
			"select q.k, q.s from (select ps_partkey as k, sum(ps_supplycost) as s from partsupp group by ps_partkey) q where q.k = 1"},
	}
	for _, c := range cases {
		// The rule name followed by '(' distinguishes push_filter from
		// push_filter_decor in the header.
		marker := c.rule + "("
		on, onRows := rewriteHeader(t, db, 0, c.sql)
		if !strings.Contains(on, marker) {
			t.Errorf("%s: rule did not fire, header %q\nquery: %s", c.rule, on, c.sql)
			continue
		}
		off, offRows := rewriteHeader(t, db, c.bit, c.sql)
		if strings.Contains(off, marker) {
			t.Errorf("%s: fired while disabled, header %q", c.rule, off)
		}
		if !sameRows(onRows, offRows) {
			t.Errorf("%s: rule changed results\n on: %v\noff: %v\nquery: %s", c.rule, onRows, offRows, c.sql)
		}
	}
}

// TestRewriteAllDisabled: RuleAll must silence the whole pass — no header
// on any query that otherwise rewrites.
func TestRewriteAllDisabled(t *testing.T) {
	db := newDemoDB(t)
	sql := "select q.ps_suppkey from (select ps_partkey, ps_suppkey, ps_supplycost from partsupp) q where q.ps_partkey = 1 and 1 = 1 order by ps_suppkey"
	on, onRows := rewriteHeader(t, db, 0, sql)
	if on == "" {
		t.Fatalf("expected rewrites on the control query")
	}
	off, offRows := rewriteHeader(t, db, plan.RuleAll, sql)
	if off != "" {
		t.Fatalf("RuleAll still rewrote: %q", off)
	}
	if !sameRows(onRows, offRows) {
		t.Fatalf("disabled pass changed results\n on: %v\noff: %v", onRows, offRows)
	}
}

// TestRuleDecorrelateMasksDecorRules: clearing the decorrelate bit (the
// Aggify+ ablation) must also turn off rewrite rules that assume
// decorrelated shapes — push_filter_decor must not fire even though its
// DisableRules bit is clear.
func TestRuleDecorrelateMasksDecorRules(t *testing.T) {
	db := newDemoDB(t)
	sql := "select q.k, q.s from (select ps_partkey as k, sum(ps_supplycost) as s from partsupp group by ps_partkey) q where q.k = 1"

	on, onRows := rewriteHeader(t, db, 0, sql)
	if !strings.Contains(on, "push_filter_decor(") {
		t.Fatalf("control query must fire push_filter_decor, header %q", on)
	}

	off, offRows := rewriteHeader(t, db, plan.RuleDecorrelate, sql)
	if strings.Contains(off, "push_filter_decor(") {
		t.Fatalf("push_filter_decor fired with decorrelate disabled, header %q", off)
	}
	if !sameRows(onRows, offRows) {
		t.Fatalf("ablation changed results\n on: %v\noff: %v", onRows, offRows)
	}
}

// decorrelateConfigs are the DisableRules settings the decorrelation tests
// compare: every rule, every rule but decorrelate, decorrelate alone, and
// no rule.
var decorrelateConfigs = []struct {
	name     string
	disabled plan.RuleSet
}{
	{"default", 0},
	{"no-decorrelate", plan.RuleDecorrelate},
	{"decorrelate-only", plan.RuleAll &^ plan.RuleDecorrelate},
	{"no-rules", plan.RuleAll},
}

// TestDecorrelateEdgeCases pins planner behaviour on shapes where apply
// decorrelation and the rewrite pass interact: a correlated scalar subquery
// inside a would-be pushdown predicate, a correlated apply under TOP, and
// correlation reaching through two derived-table levels. Each query runs
// under the four decorrelateConfigs, which must all agree.
func TestDecorrelateEdgeCases(t *testing.T) {
	db := newDemoDB(t)
	cases := []struct {
		name, sql string
		want      []string
	}{
		{"correlated subquery in pushdown predicate",
			`select q.k from (select ps_partkey as k from partsupp) q
			 where (select count(*) from partsupp p2 where p2.ps_partkey = q.k) > 1
			 order by k`,
			[]string{"1", "1"}},
		{"apply under top",
			`select top 2 ps_partkey, (select s_name from supplier where s_suppkey = ps_suppkey) as nm
			 from partsupp order by ps_partkey, nm`,
			nil}, // cross-config agreement only: char() padding is config-independent
		{"correlation through two derived levels",
			`select s_suppkey, (select min(x.c) from (select y.c from
			   (select ps_supplycost as c, ps_suppkey as sk from partsupp) y
			   where y.sk = s_suppkey) x) as m
			 from supplier order by s_suppkey`,
			[]string{"10|5", "11|3.5"}},
	}
	sess := db.Session()
	for _, c := range cases {
		// A predicate containing a subquery must never be pushed into a
		// derived table (the subquery's correlation scope would change).
		if c.name == "correlated subquery in pushdown predicate" {
			header, _ := rewriteHeader(t, db, 0, c.sql)
			if strings.Contains(header, "push_filter(") || strings.Contains(header, "push_filter_decor(") {
				t.Errorf("%s: predicate with subquery was pushed, header %q", c.name, header)
			}
		}
		var base []string
		for _, cfg := range decorrelateConfigs {
			sess.Opts.DisableRules = cfg.disabled
			got := queryRows(t, db, c.sql)
			sess.Opts.DisableRules = 0
			if base == nil {
				base = got
				if c.want != nil && !sameRows(got, c.want) {
					t.Errorf("%s: wrong rows %v, want %v", c.name, got, c.want)
				}
				if c.want == nil && len(got) == 0 {
					t.Errorf("%s: no rows", c.name)
				}
				continue
			}
			if !sameRows(base, got) {
				t.Errorf("%s (%s): rows diverged\n got: %v\nbase: %v", c.name, cfg.name, got, base)
			}
		}
	}
}

// TestDecorrelateDifferential runs correlated scalar aggregates over a table
// whose key-7 group no outer row references and whose z is 0 there. The
// join form aggregates that group too, so decorrelate must decline a body
// with an operation that can raise on a column value, or it raises an error
// the apply form never reaches. Every case must give the same rows, or the
// same error, under the four decorrelateConfigs, and decorrelate must fire
// exactly where the case says.
func TestDecorrelateDifferential(t *testing.T) {
	db := aggify.Open()
	if err := db.Exec(`
create table t (a int);
create table s (k int, v int, z int);
insert into t values (1), (2), (3);
insert into s values (1, 10, 2), (1, 20, 5), (2, 7, 1), (7, 1, 0);
`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, sql   string
		decorrelate bool
		want        string // rows joined by " ", or the error text
	}{
		{"division in an aggregate argument",
			`select a, (select sum(v / z) from s where s.k = t.a) from t`,
			false, "1|9 2|7 3|NULL"},
		{"division in a local predicate",
			`select a, (select count(*) from s where s.k = t.a and 10 / s.z > 0) from t`,
			false, "1|2 2|1 3|0"},
		{"division the apply form reaches",
			`select a, (select sum(v / z) from s where s.k = t.a + 6) from t`,
			false, "sqltypes: division by zero"},
		{"column-free operands",
			`select a, (select sum(__coerce(100000, 'DECIMAL(15,2)') * -1) from s where s.k = t.a) from t`,
			true, "1|-200000 2|-100000 3|NULL"},
		{"outer column in an IN list",
			`select a, (select sum(case when t.a in (1, 3) then v else 0 end) from s where s.k = t.a) from t`,
			true, "1|30 2|0 3|NULL"},
		{"count(*) of an unmatched row",
			`select a, (select count(*) from s where s.k = t.a and s.z > 1) from t`,
			true, "1|2 2|0 3|0"},
		{"subquery inside EXISTS",
			`select a, case when exists(select 1 from s where s.v = (select max(u.v) from s u where u.k = s.k)) then 1 else 0 end from t`,
			false, "1|1 2|1 3|1"},
	}
	sess := db.Session()
	for _, c := range cases {
		for _, cfg := range decorrelateConfigs {
			sess.Opts.DisableRules = cfg.disabled
			var got string
			if rows, err := db.Query(c.sql); err != nil {
				got = err.Error()
			} else {
				got = strings.Join(rowStrings(rows), " ")
			}
			explain := runExplainDB(t, db, "EXPLAIN "+c.sql)
			sess.Opts.DisableRules = 0
			if got != c.want {
				t.Errorf("%s (%s): got %q, want %q", c.name, cfg.name, got, c.want)
			}
			fired := strings.Contains(explain, "decorrelate(")
			if want := c.decorrelate && !cfg.disabled.Has(plan.RuleDecorrelate); fired != want {
				t.Errorf("%s (%s): decorrelate fired = %v, want %v\n%s", c.name, cfg.name, fired, want, explain)
			}
		}
	}
}
