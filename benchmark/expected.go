package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Pinned facts: the TPC-H row counts aggifyd must load, and for the default
// seed a checksum of each workload's operation list and of the answers to
// its warm-up pass. They catch what the live oracles cannot: a change that
// moves the oracle and the daemon together.

//go:embed expected/tpch_rows.json
var pinnedRowsJSON []byte

//go:embed expected/checksums.json
var pinnedSumsJSON []byte

// checksums is one workload's pinned pair, as hex strings.
type checksums struct {
	Ops     string `json:"ops"`               // the first W+K operations as sent
	Answers string `json:"answers,omitempty"` // the warm-up pass's answers
}

type pinned struct {
	rows map[string]int64
	sums map[string]checksums
}

func newPinned() *pinned {
	return &pinned{rows: map[string]int64{}, sums: map[string]checksums{}}
}

func loadPinned() (*pinned, error) {
	p := newPinned()
	if err := json.Unmarshal(pinnedRowsJSON, &p.rows); err != nil {
		return nil, fmt.Errorf("expected/tpch_rows.json: %w", err)
	}
	if err := json.Unmarshal(pinnedSumsJSON, &p.sums); err != nil {
		return nil, fmt.Errorf("expected/checksums.json: %w", err)
	}
	return p, nil
}

func (p *pinned) write(root string) error {
	for name, v := range map[string]any{"tpch_rows.json": p.rows, "checksums.json": p.sums} {
		data, _ := json.MarshalIndent(v, "", "  ")
		if err := os.WriteFile(filepath.Join(root, "benchmark", "expected", name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// opListChecksum folds the first W+K operations, as the daemon receives
// them, into one number.
func opListChecksum(w workload) uint64 {
	sp := w.spec()
	h := fnv.New64a()
	for i := 0; i < sp.warmup+sp.traceOps; i++ {
		io.WriteString(h, w.op(i).String()+"\n")
	}
	return h.Sum64()
}

// checkPinned compares the default seed's operation list and warm-up
// answers with expected/checksums.json (or records them under -pin).
func (e *env) checkPinned(w workload, seed int64, s *session, res *result) {
	if seed != defaultSeed {
		return
	}
	sp := w.spec()
	got := checksums{Ops: fmt.Sprintf("%016x", opListChecksum(w))}
	if !sp.durable {
		// The durable workload's reads race its other connection's writes,
		// so its answers have no fixed checksum; the crash check covers it.
		got.Answers = fmt.Sprintf("%016x", s.warmChecksum)
	}
	if e.pinning != nil {
		e.pinning.sums[sp.name] = got
		return
	}
	if e.want.sums[sp.name] != got {
		res.fail("default-seed checksums are %+v, expected/checksums.json pins %+v", got, e.want.sums[sp.name])
	}
}

var tpchTables = []string{"supplier", "part", "partsupp", "customer", "orders", "lineitem"}

// checkRowCounts asks the daemon for its TPC-H table sizes and compares
// them with expected/tpch_rows.json (or records them under -pin).
func (e *env) checkRowCounts(w workload, s *session, res *result) {
	if !w.spec().tpch {
		return
	}
	var q []string
	for _, t := range tpchTables {
		q = append(q, "select count(*) from "+t)
	}
	out, err := s.conns[0].ExecResults(strings.Join(q, "; "))
	if err != nil || len(out.Sets) != len(tpchTables) {
		res.fail("counting TPC-H rows: %v", err)
		return
	}
	for i, t := range tpchTables {
		n, _ := out.Sets[i].Rows[0][0].AsInt()
		if e.pinning != nil {
			e.pinning.rows[t] = n
		} else if e.want.rows[t] != n {
			res.fail("table %s has %d rows, expected/tpch_rows.json pins %d", t, n, e.want.rows[t])
		}
	}
}
