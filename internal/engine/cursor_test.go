package engine_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
)

// closeFileUnder closes the descriptor of the one open file whose path starts
// with prefix, found through /proc/self/fd; it reports whether there was one.
func closeFileUnder(t *testing.T, prefix string) bool {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(link, prefix) {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.NewFile(uintptr(fd), link).Close(); err != nil {
			t.Fatal(err)
		}
		return true
	}
	return false
}

// TestCursorOpenWorktableWriteFails closes a cursor's worktable file while
// OPEN is materializing into it: OPEN returns the worktable's write error,
// and the session keeps answering.
func TestCursorOpenWorktableWriteFails(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("needs /proc/self/fd to find the worktable's descriptor")
	}
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	sess := newDB(t, `
create table t (x int, pad varchar(100));
GO
create function hook(@x int) returns int as begin return @x; end`)
	// hook is a call site the test intercepts, so it must stay a call.
	sess.Opts.DisableRules = plan.RuleInlineUDF
	tab, _ := sess.Eng.Table("t")
	pad := sqltypes.NewString(strings.Repeat("p", 100))
	for i := int64(0); i < 1000; i++ {
		if err := tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(i), pad}); err != nil {
			t.Fatal(err)
		}
	}

	// Row 300 comes after several spilled pages; hook closes the file then.
	call := sess.Eng.FuncCaller
	closed := false
	sess.Eng.FuncCaller = func(s *engine.Session, ctx *exec.Ctx, def *ast.CreateFunction, args []sqltypes.Value) (sqltypes.Value, error) {
		if args[0].Int() == 300 {
			closed = closeFileUnder(t, filepath.Join(dir, "aggify-worktable-"))
		}
		return call(s, ctx, def, args)
	}
	qs := parser.MustParse("select x, hook(x), pad from t")[0].(*ast.QueryStmt)
	cur := engine.NewCursor("c", qs.Query)
	err := cur.Open(sess, sess.Ctx(nil, nil))
	cur.Deallocate()
	if !closed {
		t.Fatal("found no worktable file to close")
	}
	if err == nil || !strings.Contains(err.Error(), "worktable write") {
		t.Fatalf("OPEN over a closed worktable file: err = %v, want the worktable write error", err)
	}

	sess.Eng.FuncCaller = call
	if rows := query(t, sess, "select 1"); len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("select 1 after the failed OPEN = %v", rows)
	}
}
