package engine

import (
	"errors"
	"fmt"

	"aggify/internal/exec"
	"aggify/internal/storage"
	"aggify/internal/txn"
)

// Per-session transaction state. A session is either in auto-commit mode
// (each statement runs in its own implicit transaction) or inside an
// explicit BEGIN TRANSACTION, whose snapshot every statement reads through
// until COMMIT or ROLLBACK.

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Txn returns the session's open explicit transaction, or nil.
func (s *Session) Txn() *txn.Txn { return s.tx }

// BeginTxn opens an explicit transaction pinned at the current commit
// epoch. Nested BEGIN TRANSACTION is an error (the dialect has no
// savepoints).
func (s *Session) BeginTxn() error {
	if s.tx != nil {
		return fmt.Errorf("engine: transaction already in progress")
	}
	s.tx = s.Eng.TxnMgr.Begin()
	s.inTxn.Store(true)
	return nil
}

// CommitTxn commits the open explicit transaction, waiting for durability
// when a WAL is attached.
func (s *Session) CommitTxn() error {
	if s.tx == nil {
		return fmt.Errorf("engine: no transaction in progress")
	}
	tx := s.tx
	s.tx = nil
	s.inTxn.Store(false)
	if err := tx.Commit(); err != nil {
		return err
	}
	s.Eng.MaybeVacuum()
	return nil
}

// RollbackTxn rolls back the open explicit transaction.
func (s *Session) RollbackTxn() error {
	if s.tx == nil {
		return fmt.Errorf("engine: no transaction in progress")
	}
	s.tx.Rollback()
	s.tx = nil
	s.inTxn.Store(false)
	return nil
}

// Close releases session resources; an open explicit transaction is
// rolled back (a dropped connection must never leave uncommitted versions
// pinning the vacuum horizon).
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
		s.inTxn.Store(false)
	}
	s.Eng.unregisterSession(s.ID)
}

// PinRead installs a read snapshot into ctx for the duration of one
// statement and returns the release func. Inside an explicit transaction
// the transaction's snapshot is used (so statements read the epoch pinned
// at BEGIN, plus their own uncommitted writes); otherwise a fresh snapshot
// of the current epoch is pinned — statement-level snapshot isolation.
// If ctx already carries a snapshot the call is a no-op, which is what
// keeps nested evaluation (subqueries, UDFs called from a query) on the
// statement's epoch.
func (s *Session) PinRead(ctx *exec.Ctx) func() {
	if ctx == nil || ctx.Snap != nil {
		return func() {}
	}
	if s.tx != nil {
		ctx.Snap = s.tx.Snapshot()
		s.curEpoch.Store(ctx.Snap.Epoch)
		return func() { ctx.Snap = nil }
	}
	snap := s.Eng.TxnMgr.Acquire()
	ctx.Snap = snap
	s.curEpoch.Store(snap.Epoch)
	return func() {
		ctx.Snap = nil
		snap.Release()
	}
}

// dmlMaxRetries bounds implicit-transaction retries on write conflict.
// Auto-commit statements re-run against a fresh snapshot, approximating
// the blocking retry a lock-based engine gives READ COMMITTED writers;
// explicit transactions never retry — first-committer-wins surfaces the
// conflict to the client.
const dmlMaxRetries = 8

// dmlApply runs one DML statement's collect-and-apply closure under the
// appropriate transaction:
//
//   - unmanaged tables (temp tables, table variables) apply directly and
//     ignore transactions, matching T-SQL table-variable semantics;
//   - inside an explicit transaction the writes join it, and a write
//     conflict rolls the whole transaction back (first-committer-wins);
//   - otherwise the statement runs in an implicit transaction whose
//     snapshot is installed as ctx.Snap, retried on conflict.
func (s *Session) dmlApply(ctx *exec.Ctx, tab *storage.Table, apply func(tx *txn.Txn) (int, error)) (int, error) {
	if !tab.Managed() {
		return apply(nil)
	}
	if s.tx != nil {
		saved := ctx.Snap
		ctx.Snap = s.tx.Snapshot()
		n, err := apply(s.tx)
		ctx.Snap = saved
		if errors.Is(err, txn.ErrWriteConflict) {
			s.conflicts.Add(1)
			s.RollbackTxn()
			return n, fmt.Errorf("%w; transaction rolled back", err)
		}
		return n, err
	}
	// One attempt in its own frame: the deferred Rollback is a no-op once
	// the transaction has committed, and also runs if apply panics, so a
	// contained fault (see server.dispatchContained) leaves no uncommitted
	// versions behind.
	attempt := func() (int, error) {
		tx := s.Eng.TxnMgr.Begin()
		defer tx.Rollback()
		saved := ctx.Snap
		ctx.Snap = tx.Snapshot()
		defer func() { ctx.Snap = saved }()
		n, err := apply(tx)
		if err != nil {
			return n, err
		}
		return n, tx.Commit()
	}
	var n int
	var err error
	for i := 0; i < dmlMaxRetries; i++ {
		if n, err = attempt(); err == nil {
			s.Eng.MaybeVacuum()
			return n, nil
		}
		if !errors.Is(err, txn.ErrWriteConflict) {
			return n, err
		}
		s.conflicts.Add(1)
	}
	return n, err
}

// AbortStmt returns the session to a clean idle state after a statement was
// abandoned mid-flight (a contained panic): the explicit transaction, if
// any, is rolled back and the session no longer reports as active.
func (s *Session) AbortStmt() {
	if s.tx != nil {
		s.RollbackTxn()
	}
	s.stmtStart.Store(0)
}
