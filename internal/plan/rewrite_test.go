package plan

import (
	"fmt"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// parseExpr parses a scalar expression through the real parser so tests
// exercise the exact shapes the rewriter sees.
func parseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	q := parser.MustParse("select " + src)[0].(*ast.QueryStmt).Query
	return q.Items[0].Expr
}

func foldString(t *testing.T, src string) (string, int) {
	t.Helper()
	out, n := foldExpr(parseExpr(t, src))
	return out.String(), n
}

func TestFoldExprConstants(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"1 + 2 * 3", "7"},
		{"-(1 + 2)", "-3"},
		{"1 < 2", "TRUE"},
		{"'a' = 'b'", "FALSE"},
		{"null is null", "TRUE"},
		{"null is not null", "FALSE"},
		{"2 between 1 and 3", "TRUE"},
		{"not (1 = 1)", "FALSE"},
		{"'foo' || 'bar'", "'foobar'"},
		// Kleene three-valued logic: the fold must agree with the runtime.
		{"null and (1 = 0)", "FALSE"},
		{"null or (1 = 1)", "TRUE"},
		{"null and (1 = 1)", "NULL"},
		{"null or (1 = 0)", "NULL"},
		// NULL propagation through comparisons and arithmetic.
		{"null + 1", "NULL"},
		{"null = null", "NULL"},
		// CASE arm elimination.
		{"case when 1 = 0 then 'a' when 1 = 1 then 'b' else 'c' end", "'b'"},
		{"case when 1 = 0 then 'a' end", "NULL"},
	}
	for _, c := range cases {
		got, n := foldString(t, c.src)
		if got != c.want {
			t.Errorf("fold(%s) = %s, want %s", c.src, got, c.want)
		}
		if n == 0 {
			t.Errorf("fold(%s) fired no collapses", c.src)
		}
	}
}

func TestFoldExprLeavesErrorsAndColumns(t *testing.T) {
	// Expressions whose evaluation errors must survive untouched so the
	// runtime raises the same error the unrewritten query would.
	for _, src := range []string{"1 / 0", "9223372036854775807 + 1"} {
		before := parseExpr(t, src).String()
		got, _ := foldString(t, src)
		if got != before {
			t.Errorf("fold(%s) = %s, must stay unfolded", src, got)
		}
	}
	// Column references block folding of their enclosing expression but not
	// of constant siblings.
	got, n := foldString(t, "x + (1 + 2)")
	if got != "(x + 3)" || n != 1 {
		t.Errorf("fold(x + (1 + 2)) = %s (n=%d), want (x + 3) (n=1)", got, n)
	}
	// Subquery bodies are opaque.
	got, n = foldString(t, "(select 1 + 2) ")
	if n != 0 {
		t.Errorf("fold descended into a subquery: %s (n=%d)", got, n)
	}
}

func TestFoldExprCaseFirstTruthyArm(t *testing.T) {
	// A truthy literal arm after non-literal arms becomes the ELSE and the
	// trailing arms die.
	got, _ := foldString(t, "case when x = 1 then 'a' when 1 = 1 then 'b' when y = 2 then 'c' else 'd' end")
	want := "CASE WHEN (x = 1) THEN 'a' ELSE 'b' END"
	if got != want {
		t.Errorf("fold = %s, want %s", got, want)
	}
}

func TestTotalPushExpr(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"k = 7", true},
		{"k > 1 and v < 2", true},
		{"k is null", true},
		{"k between 1 and 3", true},
		{"k in (1, 2, 3)", true},
		{"case when k = 1 then 1 else 0 end = 1", true},
		// Arithmetic can overflow or divide by zero at new rows.
		{"k + 1 = 7", false},
		{"k / v = 1", false},
		{"-k = 7", false},
		// Function calls and subqueries may error or see different scopes.
		{"abs(k) = 7", false},
		{"k in (select 1)", false},
	}
	for _, c := range cases {
		if got := totalPushExpr(parseExpr(t, c.src)); got != c.want {
			t.Errorf("totalPushExpr(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestRuleSetNamesAndToggles(t *testing.T) {
	// Every rule has a distinct bit and a distinct name, in rule order.
	seen := map[string]bool{}
	var acc RuleSet
	for _, r := range ruleOrder {
		name := ruleName(r)
		if name == "" || seen[name] {
			t.Fatalf("rule %#x has bad/duplicate name %q", r, name)
		}
		seen[name] = true
		if acc.Has(r) {
			t.Fatalf("rule %#x overlaps earlier bits", r)
		}
		acc |= r
	}
	if acc != RuleAll {
		t.Fatalf("ruleOrder covers %#x, RuleAll = %#x", acc, RuleAll)
	}
	if !RuleAll.Has(RulePushFilter) || RuleSet(0).Has(RuleFoldConst) {
		t.Fatal("Has is broken")
	}
}

// roundTripCatalog holds the tables t(a, b, x, y), u(b, x) and v(y) and the
// built-in aggregates.
type roundTripCatalog map[string]*storage.Table

func newRoundTripCatalog() roundTripCatalog {
	table := func(name string, cols ...string) *storage.Table {
		var sc []storage.Column
		for _, c := range cols {
			sc = append(sc, storage.Column{Name: c, Type: sqltypes.Int})
		}
		return storage.NewTable(name, storage.NewSchema(sc...))
	}
	return roundTripCatalog{
		"t": table("t", "a", "b", "x", "y"),
		"u": table("u", "b", "x"),
		"v": table("v", "y"),
	}
}

func (c roundTripCatalog) ResolveTable(name string) (*storage.Table, error) {
	if tab, ok := c[name]; ok {
		return tab, nil
	}
	return nil, fmt.Errorf("no table %s", name)
}

func (roundTripCatalog) AggSpec(name string) (*exec.AggSpec, bool) {
	spec, ok := exec.BuiltinAggs()[name]
	return spec, ok
}

func (roundTripCatalog) ScalarFunc(string) (*ast.CreateFunction, bool) { return nil, false }

// TestRewriteRoundTrip feeds the basic query shapes, and one the rules
// fold and push into, through the IR build and compile, with no rule
// enabled (no clone is made) and with every rule enabled, and requires each to compile to the expected output columns and
// the parsed query to render byte-identically afterwards: the plan cache
// keeps and recompiles that AST, so the IR must read it, never rewrite it.
// The plans the rules-off compile produces are pinned by the `rules off:`
// sections of testdata/rewrite_trace.golden.
func TestRewriteRoundTrip(t *testing.T) {
	queries := []struct {
		src  string
		cols string
	}{
		{"select a, b from t", "a,b"},
		{"select distinct a from t where a = 1 and b > 2", "a"},
		{"select a, count(*) as n from t where b = 1 group by a having count(*) > 2", "a,n"},
		{"select top 3 a from t order by a desc, b", "a"},
		{"select q.a from (select a from t where a > 0) q where q.a < 10", "a"},
		{"select a from t inner join u on t.x = u.x left join v on v.y = t.y", "a"},
		{"with c as (select a from t) select * from c where a = 1", "a"},
		{"select a from t union all select b from u order by a", "a"},
		{"select q.c from (select a + (1 + 2) as c, b from t) q where q.b = 2 * 3 and 1 = 1", "c"},
	}
	cat := newRoundTripCatalog()
	for _, rules := range []RuleSet{0, RuleAll} {
		for _, qc := range queries {
			q := parser.MustParse(qc.src)[0].(*ast.QueryStmt).Query
			before := q.String()
			p, err := Compile(cat, Options{DisableRules: RuleAll &^ rules}, q)
			if err != nil {
				t.Errorf("rules %#x: compile %s: %v", rules, qc.src, err)
				continue
			}
			if got := strings.Join(p.Columns, ","); got != qc.cols {
				t.Errorf("rules %#x: %s: columns %s, want %s", rules, qc.src, got, qc.cols)
			}
			if got := q.String(); got != before {
				t.Errorf("rules %#x: compile changed query:\n  in:  %s\n  out: %s", rules, before, got)
			}
		}
	}
}

func TestAddMark(t *testing.T) {
	m := addMark("", "push_filter")
	m = addMark(m, "choose_access_path")
	if m != "push_filter,choose_access_path" {
		t.Fatalf("addMark chain = %q", m)
	}
	if got := addMark(m, "push_filter"); got != m {
		t.Fatalf("addMark duplicated: %q", got)
	}
}
