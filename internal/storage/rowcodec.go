package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"aggify/internal/sqltypes"
)

// The row codec serializes rows into the compact binary format used by
// worktables (cursor materialization) and by the client/server wire
// protocol. Cursors in the engine pay this encode/decode cost for every
// row, which is the mechanical analogue of SQL Server spooling cursor
// results into a tempdb worktable.
//
// Format, per value:
//
//	tag byte (Kind)
//	KindNull   — nothing
//	KindBool   — 1 byte
//	KindInt    — uvarint zig-zag
//	KindFloat  — 8 bytes little-endian IEEE-754
//	KindString — uvarint length + bytes
//	KindDate   — uvarint zig-zag day number
//	KindTuple  — uvarint arity + encoded elements

// AppendValue encodes v onto buf and returns the extended slice.
func AppendValue(buf []byte, v sqltypes.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case sqltypes.KindNull:
	case sqltypes.KindBool:
		if v.Bool() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case sqltypes.KindInt, sqltypes.KindDate:
		buf = binary.AppendVarint(buf, v.Int())
	case sqltypes.KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case sqltypes.KindString:
		s := v.Str()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	case sqltypes.KindTuple:
		t := v.Tuple()
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		for _, e := range t {
			buf = AppendValue(buf, e)
		}
	}
	return buf
}

// DecodeValue decodes one value from buf, returning it and the remaining
// bytes.
func DecodeValue(buf []byte) (sqltypes.Value, []byte, error) {
	if len(buf) == 0 {
		return sqltypes.Null, nil, fmt.Errorf("storage: truncated value")
	}
	kind := sqltypes.Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case sqltypes.KindNull:
		return sqltypes.Null, buf, nil
	case sqltypes.KindBool:
		if len(buf) < 1 {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated bool")
		}
		return sqltypes.NewBool(buf[0] != 0), buf[1:], nil
	case sqltypes.KindInt, sqltypes.KindDate:
		i, n := binary.Varint(buf)
		if n <= 0 {
			return sqltypes.Null, nil, fmt.Errorf("storage: bad varint")
		}
		if kind == sqltypes.KindDate {
			return sqltypes.NewDate(i), buf[n:], nil
		}
		return sqltypes.NewInt(i), buf[n:], nil
	case sqltypes.KindFloat:
		if len(buf) < 8 {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		return sqltypes.NewFloat(f), buf[8:], nil
	case sqltypes.KindString:
		n, w := binary.Uvarint(buf)
		if w <= 0 || uint64(len(buf)-w) < n {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated string")
		}
		s := string(buf[w : w+int(n)])
		return sqltypes.NewString(s), buf[w+int(n):], nil
	case sqltypes.KindTuple:
		n, w := binary.Uvarint(buf)
		if w <= 0 {
			return sqltypes.Null, nil, fmt.Errorf("storage: bad tuple arity")
		}
		buf = buf[w:]
		if n > uint64(len(buf)) {
			return sqltypes.Null, nil, fmt.Errorf("storage: tuple arity %d exceeds the %d bytes left", n, len(buf))
		}
		elems := make([]sqltypes.Value, n)
		var err error
		for i := range elems {
			elems[i], buf, err = DecodeValue(buf)
			if err != nil {
				return sqltypes.Null, nil, err
			}
		}
		return sqltypes.NewTuple(elems), buf, nil
	default:
		return sqltypes.Null, nil, fmt.Errorf("storage: unknown value tag %d", kind)
	}
}

// AppendRow encodes a row (arity prefix + values).
func AppendRow(buf []byte, row []sqltypes.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeRow decodes one row from buf, returning it and the remaining bytes.
func DecodeRow(buf []byte) ([]sqltypes.Value, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, fmt.Errorf("storage: bad row arity")
	}
	buf = buf[w:]
	// Every value costs at least its tag byte, so an arity above the bytes
	// left is a lie. Checking it before the make keeps a hostile arity off
	// the wire from asking for terabytes, a fatal out-of-memory that no
	// recover can contain.
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("storage: row arity %d exceeds the %d bytes left", n, len(buf))
	}
	row := make([]sqltypes.Value, n)
	var err error
	for i := range row {
		row[i], buf, err = DecodeValue(buf)
		if err != nil {
			return nil, nil, err
		}
	}
	return row, buf, nil
}

// WireSize returns the encoded size of a row in bytes — the unit used for
// the paper's data-movement measurements (§10.6).
func WireSize(row []sqltypes.Value) int {
	return len(AppendRow(nil, row))
}
