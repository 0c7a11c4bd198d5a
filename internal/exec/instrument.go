package exec

import (
	"sync/atomic"
	"time"

	"aggify/internal/storage"
)

// OpStats accumulates runtime counters for one instrumented operator. All
// measurements are inclusive of the operator's subtree: the renderer
// subtracts child stats to attribute exclusive costs.
type OpStats struct {
	loops        atomic.Int64
	nextCalls    atomic.Int64
	rows         atomic.Int64
	timeNanos    atomic.Int64
	peakBuffered atomic.Int64

	logicalReads    atomic.Int64
	worktableWrites atomic.Int64
	worktableReads  atomic.Int64
	worktableBytes  atomic.Int64
	rowsEmitted     atomic.Int64
	indexSeeks      atomic.Int64
}

// Loops reports Open calls (an operator on the inner side of a nested-loop
// join re-opens once per outer row).
func (s *OpStats) Loops() int64 { return s.loops.Load() }

// NextCalls reports Next invocations, including the final EOF call.
func (s *OpStats) NextCalls() int64 { return s.nextCalls.Load() }

// Rows reports rows emitted.
func (s *OpStats) Rows() int64 { return s.rows.Load() }

// Time reports wall time spent inside Open+Next+Close of the subtree.
func (s *OpStats) Time() time.Duration { return time.Duration(s.timeNanos.Load()) }

// PeakBuffered reports the largest BufferedRows observation for blocking
// operators (sorts, hash builds, aggregation tables, CTE spools).
func (s *OpStats) PeakBuffered() int64 { return s.peakBuffered.Load() }

// Reads reports the storage counter delta accrued while inside the subtree.
func (s *OpStats) Reads() storage.Snapshot {
	return storage.Snapshot{
		LogicalReads:    s.logicalReads.Load(),
		WorktableWrites: s.worktableWrites.Load(),
		WorktableReads:  s.worktableReads.Load(),
		WorktableBytes:  s.worktableBytes.Load(),
		RowsEmitted:     s.rowsEmitted.Load(),
		IndexSeeks:      s.indexSeeks.Load(),
	}
}

func (s *OpStats) addReads(d storage.Snapshot) {
	s.logicalReads.Add(d.LogicalReads)
	s.worktableWrites.Add(d.WorktableWrites)
	s.worktableReads.Add(d.WorktableReads)
	s.worktableBytes.Add(d.WorktableBytes)
	s.rowsEmitted.Add(d.RowsEmitted)
	s.indexSeeks.Add(d.IndexSeeks)
}

func (s *OpStats) observeBuffered(n int64) {
	for {
		cur := s.peakBuffered.Load()
		if n <= cur || s.peakBuffered.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Buffered is implemented by blocking operators that materialize rows
// (SortOp, HashJoinOp's build side, HashAggOp, RecursiveCTEOp). BufferedRows must be O(1): it is probed after every
// Open/Next call of an instrumented execution.
type Buffered interface {
	BufferedRows() int
}

// InstrumentedOp wraps an operator and records runtime statistics into
// Stats. Stats lives outside the operator so that cached plans (whose
// explain nodes are shared across executions) stay reentrant: each
// execution carries its own OpStats map.
type InstrumentedOp struct {
	Child Operator
	Stats *OpStats
}

// Open implements Operator.
func (o *InstrumentedOp) Open(ctx *Ctx) error {
	o.Stats.loops.Add(1)
	start := time.Now()
	before := snapshotOf(ctx)
	err := o.Child.Open(ctx)
	o.Stats.addReads(snapshotOf(ctx).Sub(before))
	o.Stats.timeNanos.Add(int64(time.Since(start)))
	o.probe()
	return err
}

// Next implements Operator.
func (o *InstrumentedOp) Next(ctx *Ctx) (Row, error) {
	o.Stats.nextCalls.Add(1)
	start := time.Now()
	before := snapshotOf(ctx)
	r, err := o.Child.Next(ctx)
	o.Stats.addReads(snapshotOf(ctx).Sub(before))
	o.Stats.timeNanos.Add(int64(time.Since(start)))
	if r != nil {
		o.Stats.rows.Add(1)
	}
	o.probe()
	return r, err
}

// Close implements Operator.
func (o *InstrumentedOp) Close() {
	start := time.Now()
	o.Child.Close()
	o.Stats.timeNanos.Add(int64(time.Since(start)))
}

// probe samples the child's buffer size if it is a blocking operator.
func (o *InstrumentedOp) probe() {
	if b, ok := o.Child.(Buffered); ok {
		o.Stats.observeBuffered(int64(b.BufferedRows()))
	}
}

func snapshotOf(ctx *Ctx) storage.Snapshot {
	if ctx == nil || ctx.Stats == nil {
		return storage.Snapshot{}
	}
	return ctx.Stats.Snapshot()
}
