// Package wal implements the engine's write-ahead log and checkpoint
// files: the durability half of the transactional storage subsystem.
//
// The log is a single append-only file of framed records:
//
//	[4-byte LE payload length][4-byte LE CRC-32 (IEEE) of payload][payload]
//
// Payloads reuse the engine's binary row codec (internal/storage/rowcodec)
// for row images, so the on-disk format is the same one worktables and the
// wire protocol already speak. Each record carries the commit epoch it
// belongs to; recovery replays records with epoch greater than the last
// checkpoint's epoch, in file order, and stops at the first torn or
// corrupt frame (the tail a crash may leave behind).
//
// Record kinds:
//
//	'C' commit        — epoch + the transaction's logical mutations
//	'T' create table  — epoch + name + column defs
//	'I' create index  — epoch + table + column
//	'D' drop table    — epoch + name
//
// DDL records get their own epoch (Manager.AdvanceEpoch) so a checkpoint
// at epoch E never splits a DDL record at E.
package wal

import (
	"encoding/binary"
	"fmt"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/txn"
)

const (
	recCommit      byte = 'C'
	recCreateTable byte = 'T'
	recCreateIndex byte = 'I'
	recDropTable   byte = 'D'
)

// ColumnDef is the serialized form of one schema column.
type ColumnDef struct {
	Name string
	Type sqltypes.Type
}

// CommitRecord is the redo record of one committed transaction.
type CommitRecord struct {
	Epoch uint64
	Muts  []txn.Mutation
}

// CreateTableRecord logs a CREATE TABLE.
type CreateTableRecord struct {
	Epoch uint64
	Name  string
	Cols  []ColumnDef
}

// CreateIndexRecord logs a CREATE INDEX.
type CreateIndexRecord struct {
	Epoch  uint64
	Table  string
	Column string
}

// DropTableRecord logs a DROP TABLE.
type DropTableRecord struct {
	Epoch uint64
	Name  string
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(buf []byte) (string, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || uint64(len(buf)-w) < n {
		return "", nil, fmt.Errorf("wal: truncated string")
	}
	return string(buf[w : w+int(n)]), buf[w+int(n):], nil
}

func decodeUvarint(buf []byte) (uint64, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, nil, fmt.Errorf("wal: bad uvarint")
	}
	return n, buf[w:], nil
}

// EncodeCommit serializes a commit record payload.
func EncodeCommit(epoch uint64, muts []txn.Mutation) []byte {
	buf := []byte{recCommit}
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(len(muts)))
	for _, m := range muts {
		buf = append(buf, byte(m.Op))
		buf = appendString(buf, m.Table)
		rid := m.Rid
		if rid < 0 {
			rid = 0
		}
		buf = binary.AppendUvarint(buf, uint64(rid))
		switch m.Op {
		case txn.MutInsert, txn.MutUpdate:
			buf = storage.AppendRow(buf, m.Row)
		}
	}
	return buf
}

// EncodeCreateTable serializes a CREATE TABLE payload.
func EncodeCreateTable(epoch uint64, name string, cols []ColumnDef) []byte {
	buf := []byte{recCreateTable}
	buf = binary.AppendUvarint(buf, epoch)
	buf = appendString(buf, name)
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = appendString(buf, c.Name)
		buf = appendColumnType(buf, c.Type)
	}
	return buf
}

// EncodeCreateIndex serializes a CREATE INDEX payload. The trailing byte
// once named the index kind; there is one kind now, so it is written as 1
// and decoders ignore it (and its absence), which keeps logs readable in
// both directions.
func EncodeCreateIndex(epoch uint64, table, column string) []byte {
	buf := []byte{recCreateIndex}
	buf = binary.AppendUvarint(buf, epoch)
	buf = appendString(buf, table)
	buf = appendString(buf, column)
	return append(buf, 1)
}

// EncodeDropTable serializes a DROP TABLE payload.
func EncodeDropTable(epoch uint64, name string) []byte {
	buf := []byte{recDropTable}
	buf = binary.AppendUvarint(buf, epoch)
	buf = appendString(buf, name)
	return buf
}

func appendColumnType(buf []byte, t sqltypes.Type) []byte {
	buf = append(buf, byte(t.ID))
	buf = binary.AppendUvarint(buf, uint64(t.Prec))
	return binary.AppendUvarint(buf, uint64(t.Scale))
}

func decodeColumnType(buf []byte) (sqltypes.Type, []byte, error) {
	if len(buf) < 1 {
		return sqltypes.Type{}, nil, fmt.Errorf("wal: truncated column type")
	}
	id := sqltypes.TypeID(buf[0])
	prec, buf, err := decodeUvarint(buf[1:])
	if err != nil {
		return sqltypes.Type{}, nil, err
	}
	scale, buf, err := decodeUvarint(buf)
	if err != nil {
		return sqltypes.Type{}, nil, err
	}
	return sqltypes.Type{ID: id, Prec: int(prec), Scale: int(scale)}, buf, nil
}

// DecodeRecord parses one record payload into its typed form:
// *CommitRecord, *CreateTableRecord, *CreateIndexRecord, or
// *DropTableRecord.
func DecodeRecord(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("wal: empty record")
	}
	kind := payload[0]
	epoch, buf, err := decodeUvarint(payload[1:])
	if err != nil {
		return nil, err
	}
	switch kind {
	case recCommit:
		n, buf, err := decodeUvarint(buf)
		if err != nil {
			return nil, err
		}
		rec := &CommitRecord{Epoch: epoch, Muts: make([]txn.Mutation, 0, n)}
		for i := uint64(0); i < n; i++ {
			if len(buf) < 1 {
				return nil, fmt.Errorf("wal: truncated mutation")
			}
			m := txn.Mutation{Op: txn.MutOp(buf[0])}
			buf = buf[1:]
			m.Table, buf, err = decodeString(buf)
			if err != nil {
				return nil, err
			}
			rid, rest, err := decodeUvarint(buf)
			if err != nil {
				return nil, err
			}
			m.Rid = int(rid)
			buf = rest
			switch m.Op {
			case txn.MutInsert, txn.MutUpdate:
				m.Row, buf, err = storage.DecodeRow(buf)
				if err != nil {
					return nil, err
				}
			case txn.MutDelete, txn.MutTruncate:
			default:
				return nil, fmt.Errorf("wal: unknown mutation op %d", m.Op)
			}
			rec.Muts = append(rec.Muts, m)
		}
		return rec, nil
	case recCreateTable:
		rec := &CreateTableRecord{Epoch: epoch}
		rec.Name, buf, err = decodeString(buf)
		if err != nil {
			return nil, err
		}
		n, buf, err := decodeUvarint(buf)
		if err != nil {
			return nil, err
		}
		rec.Cols = make([]ColumnDef, 0, n)
		for i := uint64(0); i < n; i++ {
			var c ColumnDef
			c.Name, buf, err = decodeString(buf)
			if err != nil {
				return nil, err
			}
			c.Type, buf, err = decodeColumnType(buf)
			if err != nil {
				return nil, err
			}
			rec.Cols = append(rec.Cols, c)
		}
		return rec, nil
	case recCreateIndex:
		rec := &CreateIndexRecord{Epoch: epoch}
		rec.Table, buf, err = decodeString(buf)
		if err != nil {
			return nil, err
		}
		rec.Column, _, err = decodeString(buf)
		if err != nil {
			return nil, err
		}
		return rec, nil
	case recDropTable:
		rec := &DropTableRecord{Epoch: epoch}
		rec.Name, _, err = decodeString(buf)
		if err != nil {
			return nil, err
		}
		return rec, nil
	default:
		return nil, fmt.Errorf("wal: unknown record kind %q", kind)
	}
}
