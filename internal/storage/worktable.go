package storage

import (
	"fmt"
	"os"
	"runtime"

	"aggify/internal/sqltypes"
)

// Worktable is the materialization target of a static cursor: when the
// engine opens a cursor it runs the cursor query to completion and encodes
// every result row into the worktable; FETCH then decodes rows back out one
// at a time.
//
// By default worktables are disk-backed, mirroring how SQL Server spools
// static-cursor results into a tempdb worktable — the behaviour the paper
// identifies as the root cost of cursor loops (§2.3 "materialize results on
// disk, introducing additional IO", §10.4 "cursors end up materializing
// query results to disk, and then reading from the disk during iteration",
// and "temp tables are created and dropped for every run!"). Every OPEN
// creates a real temporary file, pages are written and read back through
// real file I/O, and DEALLOCATE removes the file. An in-memory mode exists
// for the ablation benchmark that isolates this cost.
//
// Rows are stored back-to-back in page-sized buffers; the encode/decode
// work is real in both modes.
type Worktable struct {
	pageSize int
	stats    *Stats
	rows     int
	offsets  []pageOffset

	// In-memory mode.
	memPages [][]byte

	// Disk mode.
	file     *os.File
	unlinked bool   // temp file already removed (unlink-after-open)
	writeBuf []byte // current page being filled
	curPage  int
	readBuf  []byte // single-page read cache
	readPage int

	scratch []byte // reusable row-encode buffer
}

type pageOffset struct {
	page  int
	start int
	end   int
}

// DefaultPageSize is the worktable page capacity in bytes (8 KiB, the SQL
// Server page size).
const DefaultPageSize = 8192

// NewWorktable creates a disk-backed worktable charging I/O against stats
// (which may be nil). If the temporary file cannot be created (read-only
// environments), the worktable silently degrades to in-memory mode.
func NewWorktable(stats *Stats) *Worktable {
	w := &Worktable{pageSize: DefaultPageSize, stats: stats, readPage: -1}
	f, err := os.CreateTemp("", "aggify-worktable-*.tmp")
	if err == nil {
		w.file = f
		// Unlink immediately (Unix): the space is reclaimed when the file
		// descriptor closes, so crashed or leaked cursors never strand temp
		// files. Platforms that refuse to remove open files fall back to
		// removal at Close time.
		if os.Remove(f.Name()) != nil {
			w.unlinked = false
		} else {
			w.unlinked = true
		}
		// Backstop for leaked cursors; DEALLOCATE closes files eagerly.
		runtime.SetFinalizer(w, func(wt *Worktable) { wt.dropFile() })
	}
	return w
}

// NewMemoryWorktable creates an in-memory worktable (the ablation mode).
func NewMemoryWorktable(stats *Stats) *Worktable {
	return &Worktable{pageSize: DefaultPageSize, stats: stats, readPage: -1}
}

// InMemory reports whether the worktable holds its pages in memory.
func (w *Worktable) InMemory() bool { return w.file == nil }

// Append encodes a row into the worktable, charging one worktable write. It
// fails, leaving the worktable as it was, when spilling a full page does.
func (w *Worktable) Append(row []sqltypes.Value) error {
	w.scratch = AppendRow(w.scratch[:0], row)
	enc := w.scratch
	if w.file == nil {
		if len(w.memPages) == 0 || len(w.memPages[len(w.memPages)-1])+len(enc) > w.pageSize {
			w.memPages = append(w.memPages, make([]byte, 0, w.pageSize))
		}
		p := len(w.memPages) - 1
		start := len(w.memPages[p])
		w.memPages[p] = append(w.memPages[p], enc...)
		w.offsets = append(w.offsets, pageOffset{page: p, start: start, end: start + len(enc)})
	} else {
		if w.writeBuf == nil {
			w.writeBuf = make([]byte, 0, w.pageSize)
		}
		if len(w.writeBuf)+len(enc) > w.pageSize && len(w.writeBuf) > 0 {
			if err := w.flushPage(); err != nil {
				return err
			}
		}
		start := len(w.writeBuf)
		w.writeBuf = append(w.writeBuf, enc...)
		w.offsets = append(w.offsets, pageOffset{page: w.curPage, start: start, end: start + len(enc)})
	}
	w.rows++
	if w.stats != nil {
		w.stats.WorktableWrites.Add(1)
		w.stats.WorktableBytes.Add(int64(len(enc)))
	}
	return nil
}

// flushPage writes the current page to disk at its page-aligned offset.
func (w *Worktable) flushPage() error {
	if w.file == nil || len(w.writeBuf) == 0 {
		return nil
	}
	if _, err := w.file.WriteAt(w.writeBuf[:cap(w.writeBuf)][:w.pageSize], int64(w.curPage)*int64(w.pageSize)); err != nil {
		return fmt.Errorf("storage: worktable write of page %d: %w", w.curPage, err)
	}
	w.curPage++
	w.writeBuf = w.writeBuf[:0]
	return nil
}

// RowCount returns the number of rows materialized.
func (w *Worktable) RowCount() int { return w.rows }

// Get decodes the i-th row, charging one worktable read. It returns a nil
// row when i is out of range, and an error when the row's page cannot be
// read back or the row does not decode.
func (w *Worktable) Get(i int) ([]sqltypes.Value, error) {
	if i < 0 || i >= w.rows {
		return nil, nil
	}
	off := w.offsets[i]
	var page []byte
	switch {
	case w.file == nil:
		page = w.memPages[off.page]
	case off.page == w.curPage:
		// The in-progress page is still in the write buffer (a dirtied
		// buffer-pool page that was never spilled).
		page = w.writeBuf
	default:
		if w.readPage != off.page {
			if w.readBuf == nil {
				w.readBuf = make([]byte, w.pageSize)
			}
			// A failed read may have overwritten part of the cached page.
			w.readPage = -1
			n, err := w.file.ReadAt(w.readBuf, int64(off.page)*int64(w.pageSize))
			if err != nil && n < off.end {
				return nil, fmt.Errorf("storage: worktable read of page %d: %w", off.page, err)
			}
			w.readPage = off.page
		}
		page = w.readBuf
	}
	row, _, err := DecodeRow(page[off.start:off.end])
	if err != nil {
		return nil, fmt.Errorf("storage: worktable row %d corrupted: %w", i, err)
	}
	if w.stats != nil {
		w.stats.WorktableReads.Add(1)
	}
	return row, nil
}

// PageCount returns the number of pages used.
func (w *Worktable) PageCount() int {
	if w.file == nil {
		return len(w.memPages)
	}
	n := w.curPage
	if len(w.writeBuf) > 0 {
		n++
	}
	return n
}

// Reset drops all rows, keeping the backing file for reuse.
func (w *Worktable) Reset() {
	w.memPages = w.memPages[:0]
	w.offsets = w.offsets[:0]
	w.rows = 0
	w.curPage = 0
	w.readPage = -1
	if w.writeBuf != nil {
		w.writeBuf = w.writeBuf[:0]
	}
}

// Close releases the worktable, removing its backing file (the DEALLOCATE
// half of "created and dropped for every run").
func (w *Worktable) Close() {
	w.Reset()
	w.dropFile()
}

func (w *Worktable) dropFile() {
	if w.file == nil {
		return
	}
	name := w.file.Name()
	_ = w.file.Close()
	if !w.unlinked {
		_ = os.Remove(name)
	}
	w.file = nil
	runtime.SetFinalizer(w, nil)
}
