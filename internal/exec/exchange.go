package exec

import (
	"fmt"
	"sync"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// This file implements intra-query parallelism: Volcano-style exchange
// operators pulling N partitioned child subtrees on worker goroutines, and
// the range-partitioned scan that feeds them. Parallel aggregation (the
// Merge half of the custom-aggregate contract, §3.1) lives in aggop.go and
// shares the worker plumbing here.
//
// Concurrency rules, kept uniform across every exchange-style operator:
//
//   - Each worker runs its child subtree under a private Ctx copy with a
//     worker-local storage.Stats, flushed into the parent's Stats exactly
//     once at worker exit (before the consumer can observe EOF). Per-node
//     instrumentation deltas therefore stay serially consistent inside each
//     worker, and the exclusive-reads-sum == session-delta invariant holds.
//   - The worker Ctx's Done channel is the operator's quit channel: closing
//     it cancels workers promptly even mid-scan. The parent's Interrupt
//     channel is inherited so session interrupts reach workers directly.
//   - Close closes quit and joins the WaitGroup; it never strands a worker
//     blocked on a channel send (every send selects on quit).

// defaultExchangeBuffer is the per-channel row capacity of an exchange.
const defaultExchangeBuffer = 64

// workerCtx derives a worker execution context from the consumer's: private
// stats, quit (when non-nil) as the local Done. It returns the context and
// a flush that folds the worker's accumulated stats into the parent context.
func workerCtx(parent *Ctx, quit <-chan struct{}) (*Ctx, func()) {
	w := *parent
	ws := &storage.Stats{}
	w.Stats = ws
	if quit != nil {
		w.Done = quit
	}
	flush := func() {
		if parent.Stats != nil {
			parent.Stats.AddSnapshot(ws.Snapshot())
		}
	}
	return &w, flush
}

// ScanSplit owns one frozen snapshot of a table's slot range and parcels it
// into NParts contiguous streaming cursors. All ParallelScanOp siblings of
// one execution share a split, so the table is locked exactly once, and
// partition i always holds rows strictly before partition i+1 in serial scan
// order — the property that lets parallel plans reproduce serial output
// orders deterministically. Rows stream out of each cursor on demand (each
// partition charges its own logical reads to its worker's stats), so a
// parallel scan never materializes the table.
type ScanSplit struct {
	// Table is the base table to snapshot; when nil, Name is resolved
	// through Ctx.Temp at first Open (table variables, temp tables).
	Table *storage.Table
	// Name is the late-bound table name used when Table is nil.
	Name string
	// NParts is the number of contiguous partitions.
	NParts int

	once  sync.Once
	curs  []*storage.Cursor
	width int
	err   error
}

// load freezes the slot snapshot and carves the partition cursors once.
func (s *ScanSplit) load(ctx *Ctx) error {
	s.once.Do(func() {
		tab := s.Table
		if tab == nil {
			if ctx.Temp == nil {
				s.err = fmt.Errorf("exec: no temp-table resolver for %s", s.Name)
				return
			}
			t, ok := ctx.Temp(s.Name)
			if !ok {
				s.err = fmt.Errorf("exec: undeclared table variable %s", s.Name)
				return
			}
			tab = t
		}
		n := s.NParts
		if n < 1 {
			n = 1
		}
		s.curs = tab.SplitCursors(ctx.Snap, n)
		s.width = tab.Schema.Len()
	})
	return s.err
}

// cursor returns partition i's streaming cursor and the table width.
func (s *ScanSplit) cursor(ctx *Ctx, i int) (*storage.Cursor, int, error) {
	if err := s.load(ctx); err != nil {
		return nil, 0, err
	}
	return s.curs[i], s.width, nil
}

// ParallelScanOp is one partition of a range-partitioned table scan. The
// planner instantiates the subtree below an exchange once per worker; each
// instance carries the same ScanSplit and its own Part index. It is a native
// batch producer: a batched consumer (the vectorized aggregation fold) pulls
// whole column batches straight off the partition's cursor.
type ParallelScanOp struct {
	Split *ScanSplit
	Part  int
	// Pred, when set, filters inside the scan (see cursorFeed).
	Pred *Predicate

	cursorFeed
}

// Open implements Operator.
func (o *ParallelScanOp) Open(ctx *Ctx) error {
	cur, width, err := o.Split.cursor(ctx, o.Part)
	if err != nil {
		return err
	}
	cur.Reset()
	o.open(cur, width, o.Pred)
	return nil
}

// exchangeWorker drains part into out under a worker context, honouring
// quit on every send. Rows ship between workers and the consumer as whole
// batches — one channel operation per ~DefaultBatchSize rows instead of one
// per row. Native batch producers are detached from their reusable buffer
// with Clone before the send; row-only subtrees are packed into fresh
// batches here. The worker's stats flush before out is closed, so a consumer
// that has seen EOF also sees the flushed reads.
func exchangeWorker(parent *Ctx, quit <-chan struct{}, part Operator, out chan<- *Batch, errp *error) {
	ctx, flush := workerCtx(parent, quit)
	defer close(out)
	defer flush()
	defer part.Close()
	if err := part.Open(ctx); err != nil {
		*errp = err
		return
	}
	if CanBatch(part) {
		src := part.(BatchOperator)
		for {
			if ctx.Interrupted() {
				*errp = ErrInterrupted
				return
			}
			b, err := src.NextBatch(ctx)
			if err != nil {
				*errp = err
				return
			}
			if b == nil {
				return
			}
			if b.Len() == 0 {
				continue
			}
			select {
			case out <- b.Clone():
			case <-quit:
				return
			}
		}
	}
	var b *Batch
	for {
		r, err := part.Next(ctx)
		if err != nil {
			*errp = err
			return
		}
		if r == nil {
			if b != nil && b.Len() > 0 {
				select {
				case out <- b:
				case <-quit:
				}
			}
			return
		}
		if b == nil {
			b = NewBatch(len(r))
		}
		b.AppendRow(r)
		if b.Len() >= DefaultBatchSize {
			select {
			case out <- b:
			case <-quit:
				return
			}
			// The consumer owns the sent batch; start a fresh one.
			b = NewBatch(len(r))
		}
	}
}

// ExchangeOp gathers the rows of N partitioned child subtrees, each pulled
// by its own worker goroutine through a bounded channel of whole batches.
// Ordered mode drains partitions in index order — with contiguous range
// partitions the output reproduces the serial scan order exactly; unordered
// mode emits batches as workers produce them (nondeterministic interleaving,
// for consumers that impose their own order). Row consumers unpack each
// received batch through Next; batch consumers take them whole via
// NextBatch.
type ExchangeOp struct {
	Parts   []Operator
	Ordered bool
	// Buffer is the per-partition channel capacity in batches (default 64).
	Buffer int

	quit    chan struct{}
	wg      sync.WaitGroup
	chans   []chan *Batch
	errs    []error
	gather  chan *Batch
	cur     int
	pending []Row
	ppos    int
	started bool
	closed  bool
}

// Open implements Operator: it starts one worker per partition.
func (o *ExchangeOp) Open(ctx *Ctx) error {
	buf := o.Buffer
	if buf <= 0 {
		buf = defaultExchangeBuffer
	}
	o.quit = make(chan struct{})
	o.chans = make([]chan *Batch, len(o.Parts))
	o.errs = make([]error, len(o.Parts))
	o.cur = 0
	o.pending = nil
	o.ppos = 0
	o.started = true
	o.closed = false
	for i, part := range o.Parts {
		ch := make(chan *Batch, buf)
		o.chans[i] = ch
		o.wg.Add(1)
		go func(i int, part Operator, ch chan *Batch) {
			defer o.wg.Done()
			exchangeWorker(ctx, o.quit, part, ch, &o.errs[i])
		}(i, part, ch)
	}
	if !o.Ordered {
		// Funnel all partitions into one channel; the funnel exits once
		// every worker channel is closed (or quit fires mid-forward).
		o.gather = make(chan *Batch, buf)
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			defer close(o.gather)
			var fan sync.WaitGroup
			for _, ch := range o.chans {
				fan.Add(1)
				go func(ch chan *Batch) {
					defer fan.Done()
					for b := range ch {
						select {
						case o.gather <- b:
						case <-o.quit:
							return
						}
					}
				}(ch)
			}
			fan.Wait()
		}()
	}
	return nil
}

// Next implements Operator: it unpacks received batches one row at a time.
func (o *ExchangeOp) Next(ctx *Ctx) (Row, error) {
	for {
		if o.ppos < len(o.pending) {
			r := o.pending[o.ppos]
			o.ppos++
			return r, nil
		}
		b, err := o.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		o.pending = b.Rows()
		o.ppos = 0
	}
}

// NextBatch implements BatchOperator. The returned batch was detached from
// its producer by the worker, so unlike most producers it remains valid
// after the next call — but consumers should not rely on that.
func (o *ExchangeOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if !o.started {
		return nil, nil
	}
	if ctx.Interrupted() {
		return nil, ErrInterrupted
	}
	if o.Ordered {
		for o.cur < len(o.chans) {
			b, err := o.recv(ctx, o.chans[o.cur])
			if err != nil {
				return nil, err
			}
			if b != nil {
				return b, nil
			}
			// Partition drained: surface its error before moving on.
			if werr := o.errs[o.cur]; werr != nil {
				return nil, werr
			}
			o.cur++
		}
		return nil, o.firstErr()
	}
	b, err := o.recv(ctx, o.gather)
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, o.firstErr()
	}
	return b, nil
}

// BatchCapable implements batchCapable: exchange transport is batched end
// to end (row-only subtrees are packed worker-side, off the consumer's
// critical path).
func (o *ExchangeOp) BatchCapable() bool { return true }

// recv pulls one batch, waking up on consumer-side cancellation.
func (o *ExchangeOp) recv(ctx *Ctx, ch <-chan *Batch) (*Batch, error) {
	select {
	case b := <-ch:
		return b, nil
	default:
	}
	// A nil Interrupt/Done case never fires, which is the wanted no-op.
	select {
	case b := <-ch:
		return b, nil
	case <-o.quit:
		return nil, ErrInterrupted
	case <-ctx.Interrupt:
		return nil, ErrInterrupted
	case <-ctx.Done:
		return nil, ErrInterrupted
	}
}

func (o *ExchangeOp) firstErr() error {
	for _, err := range o.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close implements Operator: it cancels and joins all workers.
func (o *ExchangeOp) Close() {
	if !o.started || o.closed {
		return
	}
	o.closed = true
	close(o.quit)
	// Unblock workers stuck on a full channel by draining.
	for _, ch := range o.chans {
		for range ch {
		}
	}
	if o.gather != nil {
		for range o.gather {
		}
	}
	o.wg.Wait()
	o.started = false
}

// MergeExchangeOp merges N partitioned, individually sorted child subtrees
// into one globally sorted stream: each worker runs its partition's sort,
// and the consumer repeatedly takes the smallest head row. Ties take the
// lowest partition index — with contiguous range partitions and stable
// per-partition sorts this reproduces the serial stable sort byte for byte.
type MergeExchangeOp struct {
	Parts []Operator
	// Keys/Desc mirror the SortOp ordering the partitions were sorted by.
	Keys []Scalar
	Desc []bool
	// Buffer is the per-partition channel capacity (default 64).
	Buffer int

	quit    chan struct{}
	wg      sync.WaitGroup
	chans   []chan *Batch
	errs    []error
	heads   []mergeHead
	started bool
	closed  bool
	primed  bool
}

// mergeHead is one partition's merge cursor: the current row plus the
// received batch it came from and the index of the next row to unpack.
type mergeHead struct {
	row   Row
	keys  []sqltypes.Value
	batch *Batch
	next  int
	eof   bool
}

// Open implements Operator.
func (o *MergeExchangeOp) Open(ctx *Ctx) error {
	buf := o.Buffer
	if buf <= 0 {
		buf = defaultExchangeBuffer
	}
	o.quit = make(chan struct{})
	o.chans = make([]chan *Batch, len(o.Parts))
	o.errs = make([]error, len(o.Parts))
	o.heads = make([]mergeHead, len(o.Parts))
	o.started = true
	o.closed = false
	o.primed = false
	for i, part := range o.Parts {
		ch := make(chan *Batch, buf)
		o.chans[i] = ch
		o.wg.Add(1)
		go func(i int, part Operator, ch chan *Batch) {
			defer o.wg.Done()
			exchangeWorker(ctx, o.quit, part, ch, &o.errs[i])
		}(i, part, ch)
	}
	return nil
}

// advance refills partition i's head slot, pulling a fresh batch from the
// worker only when the current one is spent.
func (o *MergeExchangeOp) advance(ctx *Ctx, i int) error {
	h := &o.heads[i]
	for h.batch == nil || h.next >= h.batch.Len() {
		var b *Batch
		select {
		case b = <-o.chans[i]:
		default:
			select {
			case b = <-o.chans[i]:
			case <-o.quit:
				return ErrInterrupted
			case <-ctx.Interrupt:
				return ErrInterrupted
			case <-ctx.Done:
				return ErrInterrupted
			}
		}
		if b == nil {
			if err := o.errs[i]; err != nil {
				return err
			}
			o.heads[i] = mergeHead{eof: true}
			return nil
		}
		h.batch = b
		h.next = 0
	}
	// Materialize into a fresh slice: the head row outlives its batch slot
	// (the consumer returns it after advance overwrites the head).
	r := h.batch.Row(h.next, nil)
	h.next++
	keys := make([]sqltypes.Value, len(o.Keys))
	for k, key := range o.Keys {
		v, err := key(ctx, r)
		if err != nil {
			return err
		}
		keys[k] = v
	}
	h.row = r
	h.keys = keys
	return nil
}

// Next implements Operator.
func (o *MergeExchangeOp) Next(ctx *Ctx) (Row, error) {
	if !o.started {
		return nil, nil
	}
	if !o.primed {
		for i := range o.Parts {
			if err := o.advance(ctx, i); err != nil {
				return nil, err
			}
		}
		o.primed = true
	}
	best := -1
	for i := range o.heads {
		h := &o.heads[i]
		if h.eof {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		if o.less(h.keys, o.heads[best].keys) {
			best = i
		}
	}
	if best < 0 {
		return nil, nil
	}
	r := o.heads[best].row
	if err := o.advance(ctx, best); err != nil {
		return nil, err
	}
	return r, nil
}

// less orders candidate head i's keys strictly before the current best's;
// equal keys keep the earlier partition (stable tie-break by index, since
// the scan over heads visits partitions in ascending order).
func (o *MergeExchangeOp) less(a, b []sqltypes.Value) bool {
	for i := range o.Keys {
		c := compareForSort(a[i], b[i])
		if c == 0 {
			continue
		}
		if o.Desc[i] {
			return c > 0
		}
		return c < 0
	}
	return false
}

// Close implements Operator.
func (o *MergeExchangeOp) Close() {
	if !o.started || o.closed {
		return
	}
	o.closed = true
	close(o.quit)
	for _, ch := range o.chans {
		for range ch {
		}
	}
	o.wg.Wait()
	o.started = false
	o.heads = nil
}
