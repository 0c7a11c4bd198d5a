package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// A checkpoint is a full image of every table at one commit epoch, written
// atomically (tmp file + fsync + rename). After a checkpoint the log can
// be reset; recovery loads the checkpoint and replays only records with a
// later epoch. Dead slots are preserved in the image so slot ids — which
// the log's mutation records address — stay stable across restarts.

// checkpointMagic identifies the file and its format version. Version 2
// added a byte after each index column that once named the index kind; it
// is written as 1 and ignored on read. Version-1 files, which lack it,
// still load.
var (
	checkpointMagic   = []byte("AGCP\x02")
	checkpointMagicV1 = []byte("AGCP\x01")
)

// CheckpointPath returns the checkpoint file path inside a data directory.
func CheckpointPath(dir string) string { return filepath.Join(dir, "checkpoint.bin") }

// TableImage is the serialized state of one table.
type TableImage struct {
	Name    string
	Cols    []ColumnDef
	Indexes []string           // indexed column names
	Slots   [][]sqltypes.Value // one entry per slot; nil = dead slot
}

// Checkpoint is a full database image at Epoch.
type Checkpoint struct {
	Epoch  uint64
	Tables []TableImage
}

// WriteCheckpoint atomically writes cp into dir.
func WriteCheckpoint(dir string, cp *Checkpoint) error {
	payload := binary.AppendUvarint(nil, cp.Epoch)
	payload = binary.AppendUvarint(payload, uint64(len(cp.Tables)))
	for _, t := range cp.Tables {
		payload = appendString(payload, t.Name)
		payload = binary.AppendUvarint(payload, uint64(len(t.Cols)))
		for _, c := range t.Cols {
			payload = appendString(payload, c.Name)
			payload = appendColumnType(payload, c.Type)
		}
		payload = binary.AppendUvarint(payload, uint64(len(t.Indexes)))
		for _, col := range t.Indexes {
			payload = append(appendString(payload, col), 1)
		}
		payload = binary.AppendUvarint(payload, uint64(len(t.Slots)))
		for _, row := range t.Slots {
			if row == nil {
				payload = append(payload, 0)
				continue
			}
			payload = append(payload, 1)
			payload = storage.AppendRow(payload, row)
		}
	}

	buf := make([]byte, 0, len(checkpointMagic)+frameOverhead+len(payload))
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)

	tmp := CheckpointPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, CheckpointPath(dir)); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadCheckpoint loads the checkpoint in dir. Returns (nil, false, nil)
// when none exists; a malformed file is an error (unlike a torn log tail,
// the checkpoint is written atomically, so corruption is never expected).
func ReadCheckpoint(dir string) (*Checkpoint, bool, error) {
	buf, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if len(buf) < len(checkpointMagic)+frameOverhead {
		return nil, false, fmt.Errorf("wal: malformed checkpoint header")
	}
	v1 := false
	switch string(buf[:len(checkpointMagic)]) {
	case string(checkpointMagic):
	case string(checkpointMagicV1):
		v1 = true
	default:
		return nil, false, fmt.Errorf("wal: malformed checkpoint header")
	}
	buf = buf[len(checkpointMagic):]
	n := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[4:8])
	payload := buf[frameOverhead:]
	if uint32(len(payload)) != n || crc32.ChecksumIEEE(payload) != sum {
		return nil, false, fmt.Errorf("wal: checkpoint payload corrupt")
	}

	cp := &Checkpoint{}
	cp.Epoch, payload, err = decodeUvarint(payload)
	if err != nil {
		return nil, false, err
	}
	ntables, payload, err := decodeUvarint(payload)
	if err != nil {
		return nil, false, err
	}
	cp.Tables = make([]TableImage, 0, ntables)
	for i := uint64(0); i < ntables; i++ {
		var t TableImage
		t.Name, payload, err = decodeString(payload)
		if err != nil {
			return nil, false, err
		}
		ncols, rest, err := decodeUvarint(payload)
		if err != nil {
			return nil, false, err
		}
		payload = rest
		t.Cols = make([]ColumnDef, 0, ncols)
		for j := uint64(0); j < ncols; j++ {
			var c ColumnDef
			c.Name, payload, err = decodeString(payload)
			if err != nil {
				return nil, false, err
			}
			c.Type, payload, err = decodeColumnType(payload)
			if err != nil {
				return nil, false, err
			}
			t.Cols = append(t.Cols, c)
		}
		nidx, rest, err := decodeUvarint(payload)
		if err != nil {
			return nil, false, err
		}
		payload = rest
		for j := uint64(0); j < nidx; j++ {
			var col string
			col, payload, err = decodeString(payload)
			if err != nil {
				return nil, false, err
			}
			if !v1 {
				if len(payload) < 1 {
					return nil, false, fmt.Errorf("wal: truncated checkpoint index")
				}
				payload = payload[1:]
			}
			t.Indexes = append(t.Indexes, col)
		}
		nslots, rest, err := decodeUvarint(payload)
		if err != nil {
			return nil, false, err
		}
		payload = rest
		if nslots > 0 {
			t.Slots = make([][]sqltypes.Value, nslots)
		}
		for j := uint64(0); j < nslots; j++ {
			if len(payload) < 1 {
				return nil, false, fmt.Errorf("wal: truncated checkpoint slot")
			}
			present := payload[0] != 0
			payload = payload[1:]
			if present {
				t.Slots[j], payload, err = storage.DecodeRow(payload)
				if err != nil {
					return nil, false, err
				}
			}
		}
		cp.Tables = append(cp.Tables, t)
	}
	return cp, true, nil
}
