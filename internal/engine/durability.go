package engine

import (
	"fmt"
	"os"
	"sort"

	"aggify/internal/storage"
	"aggify/internal/txn"
	"aggify/internal/wal"
)

// durability couples the engine to a data directory holding a write-ahead
// log and checkpoint snapshots. While attached, every commit epoch —
// DML commits and DDL alike — is logged before it publishes, and
// Checkpoint compacts the log into a full table image.
type durability struct {
	dir string
	log *wal.Log
}

// walSink adapts the log to txn.CommitSink. LogCommit runs inside the
// manager's commit lock, so records land in the WAL in epoch order;
// WaitDurable runs outside it, which is what lets group commit amortize
// one fsync over every transaction that published meanwhile.
type walSink struct{ log *wal.Log }

func (s walSink) LogCommit(epoch uint64, muts []txn.Mutation) (uint64, error) {
	return s.log.Append(wal.EncodeCommit(epoch, muts))
}

func (s walSink) WaitDurable(lsn uint64) error { return s.log.WaitDurable(lsn) }

// Durable reports whether a data directory is attached.
func (e *Engine) Durable() bool { return e.dur != nil }

// DataDir returns the attached data directory ("" when in-memory).
func (e *Engine) DataDir() string {
	if e.dur == nil {
		return ""
	}
	return e.dur.dir
}

// colsOf converts a storage schema to WAL column defs.
func colsOf(s *storage.Schema) []wal.ColumnDef {
	cols := make([]wal.ColumnDef, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = wal.ColumnDef{Name: c.Name, Type: c.Type}
	}
	return cols
}

// schemaOf converts WAL column defs back to a storage schema.
func schemaOf(cols []wal.ColumnDef) *storage.Schema {
	out := make([]storage.Column, len(cols))
	for i, c := range cols {
		out[i] = storage.Column{Name: c.Name, Type: c.Type}
	}
	return storage.NewSchema(out...)
}

// logDDL appends one DDL record under its own freshly allocated epoch and
// waits for it to become durable. No-op without an attached log.
func (e *Engine) logDDL(encode func(epoch uint64) []byte) error {
	if e.dur == nil {
		return nil
	}
	_, err := e.TxnMgr.AdvanceEpoch(func(epoch uint64) error {
		lsn, err := e.dur.log.Append(encode(epoch))
		if err != nil {
			return err
		}
		return e.dur.log.WaitDurable(lsn)
	})
	return err
}

func (e *Engine) logCreateTable(name string, schema *storage.Schema) error {
	return e.logDDL(func(epoch uint64) []byte {
		return wal.EncodeCreateTable(epoch, name, colsOf(schema))
	})
}

func (e *Engine) logCreateIndex(table, column string) error {
	return e.logDDL(func(epoch uint64) []byte {
		return wal.EncodeCreateIndex(epoch, table, column)
	})
}

func (e *Engine) logDropTable(name string) error {
	return e.logDDL(func(epoch uint64) []byte {
		return wal.EncodeDropTable(epoch, name)
	})
}

// OpenData attaches a data directory to the engine: it recovers durable
// state (checkpoint image plus WAL replay up to the last intact commit
// record), resumes epoch allocation past the recovered high-water mark,
// and begins logging subsequent commits. The catalog must be empty —
// recovery is the only source of tables for a durable engine.
func (e *Engine) OpenData(dir string, mode wal.SyncMode) error {
	if e.dur != nil {
		return fmt.Errorf("engine: data directory already attached")
	}
	if len(e.Tables()) > 0 {
		return fmt.Errorf("engine: OpenData requires an empty catalog")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// 1. Load the checkpoint image, if any. Tables created here don't log
	// (e.dur is still nil) — they already survive in the checkpoint.
	cp, ok, err := wal.ReadCheckpoint(dir)
	if err != nil {
		return err
	}
	var cpEpoch uint64
	if ok {
		cpEpoch = cp.Epoch
		for _, img := range cp.Tables {
			t, err := e.CreateTable(img.Name, schemaOf(img.Cols))
			if err != nil {
				return fmt.Errorf("engine: checkpoint recovery: %w", err)
			}
			for _, col := range img.Indexes {
				if err := t.CreateIndex(col); err != nil {
					return fmt.Errorf("engine: checkpoint recovery: %w", err)
				}
			}
			t.LoadCheckpointSlots(img.Slots)
		}
	}

	// 2. Replay WAL records past the checkpoint epoch. Records carry their
	// commit epoch, so a log that predates the checkpoint (or overlaps it)
	// replays only the suffix the checkpoint doesn't already cover.
	epoch := cpEpoch
	err = wal.ReadRecords(dir, func(payload []byte) error {
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("engine: wal recovery: %w", err)
		}
		switch r := rec.(type) {
		case *wal.CommitRecord:
			if r.Epoch <= cpEpoch {
				return nil
			}
			for _, m := range r.Muts {
				t, ok := e.Table(m.Table)
				if !ok {
					return fmt.Errorf("engine: wal recovery: commit at epoch %d references unknown table %s", r.Epoch, m.Table)
				}
				if err := t.ReplayApply(m, r.Epoch); err != nil {
					return err
				}
			}
			if r.Epoch > epoch {
				epoch = r.Epoch
			}
		case *wal.CreateTableRecord:
			if r.Epoch <= cpEpoch {
				return nil
			}
			if _, err := e.CreateTable(r.Name, schemaOf(r.Cols)); err != nil {
				return fmt.Errorf("engine: wal recovery: %w", err)
			}
			if r.Epoch > epoch {
				epoch = r.Epoch
			}
		case *wal.CreateIndexRecord:
			if r.Epoch <= cpEpoch {
				return nil
			}
			if err := e.CreateIndex(r.Table, r.Column); err != nil {
				return fmt.Errorf("engine: wal recovery: %w", err)
			}
			if r.Epoch > epoch {
				epoch = r.Epoch
			}
		case *wal.DropTableRecord:
			if r.Epoch <= cpEpoch {
				return nil
			}
			e.DropTable(r.Name)
			if r.Epoch > epoch {
				epoch = r.Epoch
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.TxnMgr.SetEpoch(epoch)

	// 3. Attach the log and start checkpointing. The immediate checkpoint
	// folds the replayed log into a fresh image and truncates it, so WAL
	// growth is bounded across restart cycles.
	log, err := wal.OpenLog(dir, mode)
	if err != nil {
		return err
	}
	e.dur = &durability{dir: dir, log: log}
	e.TxnMgr.SetSink(walSink{log: log})
	if err := e.Checkpoint(); err != nil {
		e.TxnMgr.SetSink(nil)
		e.dur = nil
		log.Close()
		return err
	}
	return nil
}

// Checkpoint writes a full image of every base table as of the current
// commit epoch, then truncates the WAL. Runs under the commit lock so the
// image is one consistent cut: the log is flushed first (commits already
// published must not outlive their log records), then the image is written
// atomically, then the now-redundant log is reset. Readers and in-progress
// writers are never blocked; only commit publication stalls briefly.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return nil
	}
	return e.TxnMgr.WithCommitLock(func(epoch uint64) error {
		if err := e.dur.log.Flush(); err != nil {
			return err
		}
		tables := e.Tables()
		sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
		cp := &wal.Checkpoint{Epoch: epoch}
		for _, t := range tables {
			cp.Tables = append(cp.Tables, wal.TableImage{
				Name:    t.Name,
				Cols:    colsOf(t.Schema),
				Indexes: t.IndexColumns(),
				Slots:   t.CheckpointSlots(epoch),
			})
		}
		if err := wal.WriteCheckpoint(e.dur.dir, cp); err != nil {
			return err
		}
		if err := e.dur.log.Reset(); err != nil {
			return err
		}
		e.checkpoints.Add(1)
		return nil
	})
}

// Checkpoints returns how many checkpoint passes have completed.
func (e *Engine) Checkpoints() int64 { return e.checkpoints.Load() }

// WALStats returns the attached log's cumulative counters plus its sync
// mode; ok is false for in-memory engines.
func (e *Engine) WALStats() (st wal.Stats, mode wal.SyncMode, ok bool) {
	if e.dur == nil {
		return wal.Stats{}, 0, false
	}
	return e.dur.log.StatsSnapshot(), e.dur.log.Mode(), true
}

// CloseData flushes the log, writes a final checkpoint, and detaches the
// data directory. Graceful shutdown calls it after the server has drained,
// so restart recovery starts from a checkpoint and an empty log.
func (e *Engine) CloseData() error {
	if e.dur == nil {
		return nil
	}
	err := e.Checkpoint()
	if cerr := e.dur.log.Close(); err == nil {
		err = cerr
	}
	e.TxnMgr.SetSink(nil)
	e.dur = nil
	return err
}
