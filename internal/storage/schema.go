// Package storage provides the physical layer of the engine: heap tables,
// ordered indexes, encoded worktables (the materialization target of cursors),
// and logical I/O accounting matching what the paper's Table 2 measures.
package storage

import (
	"fmt"
	"strings"

	"aggify/internal/sqltypes"
)

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type sqltypes.Type
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Col is a convenience constructor for a Column.
func Col(name string, t sqltypes.Type) Column { return Column{Name: strings.ToLower(name), Type: t} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Ordinal returns the index of the named column (case-insensitive), or -1.
func (s *Schema) Ordinal(name string) int {
	name = strings.ToLower(name)
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a INT, b CHAR(5))".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}
