package server

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"aggify/internal/fingerprint"
	"aggify/internal/wire"
)

// slowLogSize bounds the slow-query ring buffer.
const slowLogSize = 16

// summaryBudget caps the bytes of statement text captured per slow-query
// ring entry. Entries hold copies of request text; without a byte budget a
// single pathological multi-MB Exec batch would pin megabytes in the ring
// for as long as the entry survives.
const summaryBudget = 512

// Metrics is the server's query-metrics registry: lifetime request counters,
// traffic totals, a lock-free latency histogram, and a slow-query log. All
// hot-path updates are atomic; only the slow log takes a mutex, and only for
// requests that exceed the threshold.
type Metrics struct {
	connections   atomic.Int64
	requests      atomic.Int64
	execs         atomic.Int64
	queries       atomic.Int64
	fetches       atomic.Int64
	cursorsOpened atomic.Int64
	bytesIn       atomic.Int64
	bytesOut      atomic.Int64
	slowCount     atomic.Int64
	panics        atomic.Int64 // requests that panicked and were contained

	// hist counts requests by latency bucket: bucket i holds requests whose
	// latency in microseconds needs i bits (i.e. latency < 2^i µs), so the
	// derived percentiles are upper bounds accurate to a factor of two.
	hist [64]atomic.Int64

	mu   sync.Mutex
	slow []wire.SlowQuery // ring, newest last
}

// record accounts one served request. body is the raw request body; the
// slow-query summary is derived from it only when the request crosses the
// threshold, so the common path does no summary formatting or allocation.
func (m *Metrics) record(typ wire.MsgType, d time.Duration, bytesIn, bytesOut int, body []byte, threshold time.Duration) {
	m.requests.Add(1)
	m.bytesIn.Add(int64(bytesIn))
	m.bytesOut.Add(int64(bytesOut))
	switch typ {
	case wire.MsgExec:
		m.execs.Add(1)
	case wire.MsgQuery:
		m.queries.Add(1)
	case wire.MsgFetch:
		m.fetches.Add(1)
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	m.hist[bits.Len64(uint64(us))].Add(1)
	if threshold > 0 && d >= threshold {
		m.slowCount.Add(1)
		fp, summary := slowKey(typ, body)
		m.mu.Lock()
		if fp != 0 {
			// The ring is keyed by fingerprint: a hot slow statement folds
			// into one entry (worst latency, hit count) instead of evicting
			// everything else.
			for i := range m.slow {
				if m.slow[i].Fingerprint == fp {
					m.slow[i].Count++
					if us > m.slow[i].Micros {
						m.slow[i].Micros = us
					}
					m.mu.Unlock()
					return
				}
			}
		}
		m.slow = append(m.slow, wire.SlowQuery{Micros: us, Summary: summary, Fingerprint: fp, Count: 1})
		if len(m.slow) > slowLogSize {
			m.slow = m.slow[len(m.slow)-slowLogSize:]
		}
		m.mu.Unlock()
	}
}

// slowKey derives the slow-ring key for a request: for requests carrying
// statement text the normalized template and its fingerprint, otherwise a
// protocol-level label with fingerprint 0 (never folded).
func slowKey(typ wire.MsgType, body []byte) (uint64, string) {
	switch typ {
	case wire.MsgExec:
		src := string(body)
		return fingerprint.Fingerprint(src), clipSummary(fingerprint.Normalize(src))
	case wire.MsgPrepare:
		src := string(body)
		return fingerprint.Fingerprint(src), clipSummary("PREPARE " + fingerprint.Normalize(src))
	}
	return 0, clipSummary(requestSummary(typ, body))
}

// clipSummary enforces the slow-log byte budget.
func clipSummary(s string) string {
	if len(s) > summaryBudget {
		return s[:summaryBudget] + "..."
	}
	return s
}

// latencyPercentiles derives p50 and p99 from one consistent histogram
// snapshot. Loading the buckets once is what keeps the pair internally
// consistent under concurrent recording: computing each percentile from its
// own load could observe p50 > p99 when a burst of fast requests lands
// between the two loads. With no samples recorded both are 0 — not a
// garbage bucket bound.
func (m *Metrics) latencyPercentiles() (p50, p99 int64) {
	var counts [64]int64
	var total int64
	for i := range m.hist {
		counts[i] = m.hist[i].Load()
		total += counts[i]
	}
	return quantile(&counts, total, 0.50), quantile(&counts, total, 0.99)
}

// quantile returns the upper bound (in µs) of the histogram bucket that
// contains the q-quantile observation, or 0 when the histogram is empty.
func quantile(counts *[64]int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i >= 63 {
				return math.MaxInt64
			}
			return int64(1) << i
		}
	}
	return math.MaxInt64
}

// Snapshot assembles the wire-level stats reply. openCursors is the server's
// live cursor gauge (owned by Server, not Metrics). Typed counters are
// loaded before the requests total so that execs+queries+fetches never
// exceeds requests within one snapshot (each record bumps requests first).
func (m *Metrics) Snapshot(openCursors int64) *wire.ServerStats {
	m.mu.Lock()
	slow := append([]wire.SlowQuery(nil), m.slow...)
	m.mu.Unlock()
	execs := m.execs.Load()
	queries := m.queries.Load()
	fetches := m.fetches.Load()
	slowCount := m.slowCount.Load()
	p50, p99 := m.latencyPercentiles()
	return &wire.ServerStats{
		Connections:   m.connections.Load(),
		Requests:      m.requests.Load(),
		Execs:         execs,
		Queries:       queries,
		Fetches:       fetches,
		CursorsOpened: m.cursorsOpened.Load(),
		OpenCursors:   openCursors,
		BytesIn:       m.bytesIn.Load(),
		BytesOut:      m.bytesOut.Load(),
		P50Micros:     p50,
		P99Micros:     p99,
		SlowCount:     slowCount,
		Slow:          slow,
	}
}

// requestSummary describes a request for the slow-query log. Script text is
// clipped near the summary byte budget before conversion so a multi-MB
// batch never materializes as a string; one extra byte is kept so
// clipSummary can still see the entry was oversized and mark it.
func requestSummary(typ wire.MsgType, body []byte) string {
	switch typ {
	case wire.MsgExec:
		if len(body) > summaryBudget+1 {
			body = body[:summaryBudget+1]
		}
		return string(body)
	case wire.MsgPrepare:
		if len(body) > summaryBudget+1 {
			body = body[:summaryBudget+1]
		}
		return "PREPARE " + string(body)
	case wire.MsgQuery:
		if id, _, err := wire.DecodeQueryReq(body); err == nil {
			return fmt.Sprintf("QUERY stmt=%d", id)
		}
		return "QUERY"
	case wire.MsgFetch:
		if id, n, err := wire.DecodeFetchReq(body); err == nil {
			return fmt.Sprintf("FETCH cursor=%d max=%d", id, n)
		}
		return "FETCH"
	case wire.MsgCloseCursor:
		return "CLOSE CURSOR"
	case wire.MsgStats:
		return "STATS"
	default:
		return fmt.Sprintf("msg 0x%02x", byte(typ))
	}
}
