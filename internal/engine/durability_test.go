package engine_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/txn"
	"aggify/internal/wal"
)

// durable opens a fresh durable engine over dir with the interpreter
// installed.
func durable(t *testing.T, dir string, mode wal.SyncMode) *engine.Engine {
	t.Helper()
	eng := engine.New()
	interp.Install(eng)
	if err := eng.OpenData(dir, mode); err != nil {
		t.Fatalf("OpenData(%s): %v", dir, err)
	}
	return eng
}

func run(t *testing.T, sess *engine.Session, sql string) {
	t.Helper()
	if _, err := interp.RunScript(sess, parser.MustParse(sql)); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func queryInts(t *testing.T, sess *engine.Session, sql string) []int64 {
	t.Helper()
	rows := query(t, sess, sql)
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].Int()
	}
	return out
}

func TestDurabilityCleanRestart(t *testing.T) {
	dir := t.TempDir()
	eng := durable(t, dir, wal.SyncGroup)
	sess := eng.NewSession()
	run(t, sess, `
		create table kv (k int, v varchar(16));
		create index kv_k on kv(k);
		insert into kv values (1, 'one'), (2, 'two');
		update kv set v = 'TWO' where k = 2;
		delete from kv where k = 1;
	`)
	if err := eng.CloseData(); err != nil {
		t.Fatalf("CloseData: %v", err)
	}

	eng2 := durable(t, dir, wal.SyncGroup)
	sess2 := eng2.NewSession()
	rows := query(t, sess2, "select k, v from kv order by k")
	if len(rows) != 1 || rows[0][0].Int() != 2 || rows[0][1].Str() != "TWO" {
		t.Fatalf("recovered rows = %v", rows)
	}
	// The index must be recovered too, and usable.
	tab, ok := eng2.Table("kv")
	if !ok || tab.Index("k") == nil {
		t.Fatal("index kv(k) not recovered")
	}
	if err := eng2.CloseData(); err != nil {
		t.Fatal(err)
	}
}

func TestDurabilityCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	// SyncAlways: every commit is fsynced before the statement returns, so
	// abandoning the engine without CloseData models a crash.
	eng := durable(t, dir, wal.SyncAlways)
	sess := eng.NewSession()
	run(t, sess, `
		create table acct (id int, bal int);
		insert into acct values (1, 100), (2, 200);
	`)
	// An explicit transaction left open at crash time must not survive.
	run(t, sess, "begin transaction; update acct set bal = 0 where id = 1; insert into acct values (3, 999);")
	if !sess.InTxn() {
		t.Fatal("expected open explicit transaction")
	}
	// Crash: no COMMIT, no CloseData, no Checkpoint.

	eng2 := durable(t, dir, wal.SyncAlways)
	sess2 := eng2.NewSession()
	got := queryInts(t, sess2, "select bal from acct order by id")
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Fatalf("recovered balances = %v (uncommitted writes leaked?)", got)
	}
	if err := eng2.CloseData(); err != nil {
		t.Fatal(err)
	}
}

func TestDurabilityCommittedTxnSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	eng := durable(t, dir, wal.SyncAlways)
	sess := eng.NewSession()
	run(t, sess, "create table n (x int);")
	run(t, sess, "begin transaction; insert into n values (1); insert into n values (2); commit;")
	// Crash after commit.

	eng2 := durable(t, dir, wal.SyncAlways)
	got := queryInts(t, eng2.NewSession(), "select x from n order by x")
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("recovered = %v, want [1 2]", got)
	}
	if err := eng2.CloseData(); err != nil {
		t.Fatal(err)
	}
}

func TestDurabilityDDLRecovered(t *testing.T) {
	dir := t.TempDir()
	eng := durable(t, dir, wal.SyncAlways)
	sess := eng.NewSession()
	run(t, sess, `
		create table a (x int);
		create table doomed (y int);
		insert into doomed values (7);
		create index a_x on a(x);
	`)
	eng.DropTable("doomed")
	// Crash without checkpoint: recovery comes purely from the WAL.

	eng2 := durable(t, dir, wal.SyncAlways)
	if _, ok := eng2.Table("doomed"); ok {
		t.Fatal("dropped table resurrected by replay")
	}
	tab, ok := eng2.Table("a")
	if !ok {
		t.Fatal("table a not recovered")
	}
	if tab.Index("x") == nil {
		t.Fatal("index a(x) not recovered")
	}
	if err := eng2.CloseData(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCompactsLog(t *testing.T) {
	dir := t.TempDir()
	eng := durable(t, dir, wal.SyncGroup)
	sess := eng.NewSession()
	run(t, sess, "create table big (x int, pad varchar(64));")
	for i := 0; i < 50; i++ {
		run(t, sess, "insert into big values (1, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx');")
	}
	before, err := os.Stat(wal.LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() == 0 {
		t.Fatal("expected a non-empty WAL before checkpoint")
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after, err := os.Stat(wal.LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 0 {
		t.Fatalf("WAL not truncated by checkpoint: %d bytes", after.Size())
	}
	// And the checkpoint alone is enough to recover.
	if err := eng.CloseData(); err != nil {
		t.Fatal(err)
	}
	eng2 := durable(t, dir, wal.SyncGroup)
	got := queryInts(t, eng2.NewSession(), "select count(*) from big")
	if got[0] != 50 {
		t.Fatalf("recovered %d rows, want 50", got[0])
	}
	if err := eng2.CloseData(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDataRequiresEmptyCatalog(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	sess := eng.NewSession()
	run(t, sess, "create table t (x int);")
	if err := eng.OpenData(t.TempDir(), wal.SyncOff); err == nil {
		t.Fatal("OpenData on a populated engine should fail")
	}
}

func TestExplicitTxnCommitAndRollback(t *testing.T) {
	sess := newDB(t, "create table t (x int); insert into t values (1);")

	run(t, sess, "begin transaction; insert into t values (2);")
	// Inside the transaction the session sees its own write...
	if got := queryInts(t, sess, "select count(*) from t"); got[0] != 2 {
		t.Fatalf("in-txn count = %d, want 2", got[0])
	}
	// ...but a different session does not.
	other := sess.Eng.NewSession()
	if got := queryInts(t, other, "select count(*) from t"); got[0] != 1 {
		t.Fatalf("foreign count = %d, want 1 (dirty read)", got[0])
	}
	run(t, sess, "commit;")
	if got := queryInts(t, other, "select count(*) from t"); got[0] != 2 {
		t.Fatalf("post-commit foreign count = %d, want 2", got[0])
	}

	run(t, sess, "begin tran; delete from t; rollback;")
	if got := queryInts(t, sess, "select count(*) from t"); got[0] != 2 {
		t.Fatalf("post-rollback count = %d, want 2", got[0])
	}
	if sess.InTxn() {
		t.Fatal("transaction still open after rollback")
	}
}

func TestExplicitTxnSnapshotIsolationAcrossSessions(t *testing.T) {
	sess := newDB(t, "create table t (x int); insert into t values (1);")
	writer := sess.Eng.NewSession()

	// Reader pins its snapshot at BEGIN; writes committed after that stay
	// invisible until the reader's transaction ends.
	run(t, sess, "begin transaction;")
	if got := queryInts(t, sess, "select count(*) from t"); got[0] != 1 {
		t.Fatalf("baseline = %d", got[0])
	}
	run(t, writer, "insert into t values (2);")
	if got := queryInts(t, sess, "select count(*) from t"); got[0] != 1 {
		t.Fatalf("reader saw concurrent commit mid-txn: %d", got[0])
	}
	run(t, sess, "commit;")
	if got := queryInts(t, sess, "select count(*) from t"); got[0] != 2 {
		t.Fatalf("after commit = %d, want 2", got[0])
	}
}

func TestExplicitTxnWriteConflictRollsBack(t *testing.T) {
	sess := newDB(t, "create table t (k int, v int); insert into t values (1, 10);")
	other := sess.Eng.NewSession()

	run(t, sess, "begin transaction;")
	run(t, sess, "select v from t;") // pin reads; no writes yet
	run(t, other, "update t set v = 20 where k = 1;")
	// The stale transaction now updates the same row: first committer won.
	_, err := interp.RunScript(sess, parser.MustParse("update t set v = 30 where k = 1;"))
	if err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("want write-conflict rollback, got %v", err)
	}
	if sess.InTxn() {
		t.Fatal("conflicted transaction should have been rolled back")
	}
	// The winner's value stands.
	if got := queryInts(t, sess, "select v from t"); got[0] != 20 {
		t.Fatalf("v = %d, want 20", got[0])
	}
}

func TestTxnErrors(t *testing.T) {
	sess := newDB(t, "")
	if _, err := interp.RunScript(sess, parser.MustParse("commit;")); err == nil {
		t.Fatal("COMMIT outside a transaction should error")
	}
	if _, err := interp.RunScript(sess, parser.MustParse("rollback;")); err == nil {
		t.Fatal("ROLLBACK outside a transaction should error")
	}
	run(t, sess, "begin transaction;")
	if _, err := interp.RunScript(sess, parser.MustParse("begin transaction;")); err == nil {
		t.Fatal("nested BEGIN TRANSACTION should error")
	}
	run(t, sess, "rollback;")
}

func TestCursorSeesEpochFrozenAtOpen(t *testing.T) {
	sess := newDB(t, `
		create table t (x int);
		insert into t values (1), (2), (3);
	`)
	qs, ok := parser.MustParse("select x from t order by x")[0].(*ast.QueryStmt)
	if !ok {
		t.Fatal("not a query")
	}
	cur := engine.NewCursor("c", qs.Query)
	if err := cur.Open(sess, sess.Ctx(nil, nil)); err != nil {
		t.Fatalf("open cursor: %v", err)
	}
	// Mutations after OPEN are invisible to the cursor.
	run(t, sess, "insert into t values (4); delete from t where x = 1;")
	var got []int64
	for {
		row, ok, err := cur.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, row[0].Int())
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("cursor rows = %v, want [1 2 3] (epoch frozen at OPEN)", got)
	}
	cur.Close()
}

// parentIndexTable returns p's column defs and 100 rows (k = 0..99) as the
// WAL and checkpoint encode them.
func parentIndexTable() ([]wal.ColumnDef, [][]sqltypes.Value) {
	cols := []wal.ColumnDef{{Name: "pkey", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	rows := make([][]sqltypes.Value, 100)
	for i := range rows {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 10))}
	}
	return cols, rows
}

// assertBetweenSeek checks that the recovered p(pkey) index serves a BETWEEN
// as a range seek with the right rows.
func assertBetweenSeek(t *testing.T, eng *engine.Engine) {
	t.Helper()
	sess := eng.NewSession()
	const sql = "select pkey from p where pkey between 40 and 49"
	if plan := explainAccess(t, sess, sql); !strings.Contains(plan, "RangeSeek(p.pkey)") {
		t.Fatalf("recovered index does not range-seek:\n%s", plan)
	}
	got := queryInts(t, sess, sql)
	if len(got) != 10 || got[0] != 40 || got[9] != 49 {
		t.Fatalf("recovered range seek returned %v, want 40..49", got)
	}
}

// TestRecoverIndexWrittenAsHash: logs and checkpoints written when CREATE
// INDEX without USING ORDERED meant a hash index carry a 0 after the index
// column. There is one index kind now; such data directories recover to an
// index that range-seeks.
func TestRecoverIndexWrittenAsHash(t *testing.T) {
	cols, rows := parentIndexTable()

	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		log, err := wal.OpenLog(dir, wal.SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		muts := make([]txn.Mutation, len(rows))
		for i, r := range rows {
			muts[i] = txn.Mutation{Table: "p", Op: txn.MutInsert, Rid: i, Row: r}
		}
		ci := wal.EncodeCreateIndex(3, "p", "pkey")
		ci[len(ci)-1] = 0
		for _, rec := range [][]byte{wal.EncodeCreateTable(1, "p", cols), wal.EncodeCommit(2, muts), ci} {
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		eng := durable(t, dir, wal.SyncAlways)
		assertBetweenSeek(t, eng)
		if err := eng.CloseData(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		cp := &wal.Checkpoint{Epoch: 5, Tables: []wal.TableImage{{Name: "p", Cols: cols, Indexes: []string{"pkey"}, Slots: rows}}}
		if err := wal.WriteCheckpoint(dir, cp); err != nil {
			t.Fatal(err)
		}
		// Rewrite the byte after the index column to 0 and re-seal the frame:
		// [magic][len][crc][payload]. The index entry is the last place the
		// column name appears; the rows after it hold only integers.
		path := wal.CheckpointPath(dir)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		const header = 5 + 8
		entry := append(binary.AppendUvarint(nil, uint64(len("pkey"))), "pkey\x01"...)
		at := bytes.LastIndex(buf, entry)
		if at < header {
			t.Fatal("index entry not found in the checkpoint")
		}
		buf[at+len(entry)-1] = 0
		binary.LittleEndian.PutUint32(buf[9:13], crc32.ChecksumIEEE(buf[header:]))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		eng := durable(t, dir, wal.SyncAlways)
		assertBetweenSeek(t, eng)
		if err := eng.CloseData(); err != nil {
			t.Fatal(err)
		}
	})
}
