package storage

import "sync/atomic"

// Stats accumulates logical I/O counters, mirroring the measurements the
// paper reports in Table 2 (logical reads) and §10.4 (worktable activity).
// The counters are atomics, so a Stats may be read from another goroutine
// while its session executes.
type Stats struct {
	// LogicalReads counts rows read from persistent base tables and indexes.
	LogicalReads atomic.Int64
	// WorktableWrites counts rows materialized into cursor worktables.
	WorktableWrites atomic.Int64
	// WorktableReads counts rows fetched back out of cursor worktables.
	WorktableReads atomic.Int64
	// WorktableBytes counts bytes encoded into worktables.
	WorktableBytes atomic.Int64
	// RowsEmitted counts rows returned to query consumers.
	RowsEmitted atomic.Int64
	// IndexSeeks counts index-seek operations.
	IndexSeeks atomic.Int64
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.LogicalReads.Store(0)
	s.WorktableWrites.Store(0)
	s.WorktableReads.Store(0)
	s.WorktableBytes.Store(0)
	s.RowsEmitted.Store(0)
	s.IndexSeeks.Store(0)
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	LogicalReads    int64
	WorktableWrites int64
	WorktableReads  int64
	WorktableBytes  int64
	RowsEmitted     int64
	IndexSeeks      int64
}

// Snapshot returns a copy of the current counter values.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		LogicalReads:    s.LogicalReads.Load(),
		WorktableWrites: s.WorktableWrites.Load(),
		WorktableReads:  s.WorktableReads.Load(),
		WorktableBytes:  s.WorktableBytes.Load(),
		RowsEmitted:     s.RowsEmitted.Load(),
		IndexSeeks:      s.IndexSeeks.Load(),
	}
}

// Add returns the counter-wise sum s + t.
func (s Snapshot) Add(t Snapshot) Snapshot {
	return Snapshot{
		LogicalReads:    s.LogicalReads + t.LogicalReads,
		WorktableWrites: s.WorktableWrites + t.WorktableWrites,
		WorktableReads:  s.WorktableReads + t.WorktableReads,
		WorktableBytes:  s.WorktableBytes + t.WorktableBytes,
		RowsEmitted:     s.RowsEmitted + t.RowsEmitted,
		IndexSeeks:      s.IndexSeeks + t.IndexSeeks,
	}
}

// Sub returns the delta s - t, counter-wise.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		LogicalReads:    s.LogicalReads - t.LogicalReads,
		WorktableWrites: s.WorktableWrites - t.WorktableWrites,
		WorktableReads:  s.WorktableReads - t.WorktableReads,
		WorktableBytes:  s.WorktableBytes - t.WorktableBytes,
		RowsEmitted:     s.RowsEmitted - t.RowsEmitted,
		IndexSeeks:      s.IndexSeeks - t.IndexSeeks,
	}
}

// TotalReads returns base-table plus worktable logical reads — the quantity
// the paper's Table 2 reports.
func (s Snapshot) TotalReads() int64 { return s.LogicalReads + s.WorktableReads }
