package engine

import (
	"fmt"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// Cursor is a static explicit cursor (§2.3): OPEN runs the cursor query to
// completion and materializes every row — encoded through the worktable's
// binary codec — and FETCH NEXT decodes rows back out one at a time. This
// materialize-then-iterate behaviour (the analogue of SQL Server spooling
// static cursors into tempdb) is exactly the cost Aggify's pipelined
// rewrite eliminates.
type Cursor struct {
	Name  string
	Query *ast.Select

	wt     *storage.Worktable
	pos    int
	opened bool
	sess   *Session // owner while opened; feeds the session cursor gauge
}

// NewCursor declares a cursor over a query (DECLARE c CURSOR FOR q).
func NewCursor(name string, q *ast.Select) *Cursor {
	return &Cursor{Name: name, Query: q}
}

// Open executes the cursor query and materializes its result.
func (c *Cursor) Open(s *Session, ctx *exec.Ctx) error {
	var temp func(string) (*storage.Table, bool)
	if ctx != nil {
		temp = ctx.Temp
	}
	p, err := s.PlanQuery(c.Query, temp)
	if err != nil {
		return err
	}
	if c.wt != nil {
		c.wt.Close()
	}
	if s.InMemoryWorktables {
		c.wt = storage.NewMemoryWorktable(s.Stats)
	} else {
		c.wt = storage.NewWorktable(s.Stats)
	}
	c.pos = 0
	if !c.opened {
		s.NoteCursorOpen(1)
	}
	c.opened = true
	c.sess = s
	// The cursor materializes its whole result here, so the frozen epoch a
	// FETCH loop observes is the one pinned at OPEN — mutations after OPEN
	// (including the loop body's own) never change the fetched rows.
	defer s.PinRead(ctx)()
	op := p.Build()
	if err := op.Open(ctx); err != nil {
		op.Close()
		return err
	}
	defer op.Close()
	for {
		row, err := op.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		if err := c.wt.Append(row); err != nil {
			return err
		}
	}
}

// Fetch decodes the next row; ok is false at end of cursor.
func (c *Cursor) Fetch() (row []sqltypes.Value, ok bool, err error) {
	if !c.opened {
		return nil, false, fmt.Errorf("engine: cursor %s is not open", c.Name)
	}
	if c.pos >= c.wt.RowCount() {
		return nil, false, nil
	}
	if row, err = c.wt.Get(c.pos); err != nil {
		return nil, false, err
	}
	c.pos++
	return row, true, nil
}

// RowCount returns the number of materialized rows (0 before Open).
func (c *Cursor) RowCount() int {
	if c.wt == nil {
		return 0
	}
	return c.wt.RowCount()
}

// Close closes the cursor; the worktable is retained until Deallocate
// (matching the DECLARE/OPEN/CLOSE/DEALLOCATE lifecycle).
func (c *Cursor) Close() error {
	if !c.opened {
		return fmt.Errorf("engine: cursor %s is not open", c.Name)
	}
	c.opened = false
	if c.sess != nil {
		c.sess.NoteCursorOpen(-1)
	}
	return nil
}

// Deallocate releases the cursor's worktable (dropping its backing file).
func (c *Cursor) Deallocate() {
	if c.opened && c.sess != nil {
		c.sess.NoteCursorOpen(-1)
	}
	c.opened = false
	if c.wt != nil {
		c.wt.Close()
		c.wt = nil
	}
}
