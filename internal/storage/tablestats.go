package storage

import (
	"slices"

	"aggify/internal/sqltypes"
)

// Table statistics: the committed live row count plus a distinct estimate
// and a histogram per indexed column, kept honest across every mutation
// path.
//
// Every committed Insert/Update/Delete/Truncate — including replayed WAL
// mutations — bumps the table's statsVersion, by one per row it changed.
// The cached distinct counts and histograms are rebuilt on the next read
// once the table has Drifted from the version they were built at: once a
// tenth of the rows they describe could have changed (at least one
// mutation). The live row count is read afresh on every call, so it never
// lags. Adding an index drops the cached snapshot outright, since it has
// no distinct count or histogram for the new column.
//
// Distinct counts are exact over value hashes (a 64-bit collision is
// indistinguishable from a duplicate, which is far below the estimate's
// useful precision) and computed from the latest committed state.

// HistogramBuckets is the equi-depth bucket count per histogram.
const HistogramBuckets = 32

// histogramSampleCap bounds how many rows feed a histogram: beyond it the
// build strides deterministically (every k-th collected value), so two
// builds over the same data always produce the same buckets — EXPLAIN cost
// annotations and goldens stay stable.
const histogramSampleCap = 8192

// HistogramBucket is one equi-depth bucket: it covers the half-open key
// range (previous bucket's Hi, Hi], holding Rows sampled rows across NDV
// distinct values.
type HistogramBucket struct {
	Hi   sqltypes.Value
	Rows int
	NDV  int
}

// Histogram is an equi-depth histogram over one indexed column's sampled
// non-NULL values.
type Histogram struct {
	Buckets []HistogramBucket
	// Sampled is the number of values the buckets were built from; Rows is
	// the table's live row count at build time (Sampled <= Rows).
	Sampled int
	Rows    int
}

// SelectivityRange estimates the fraction of the column's rows whose value
// falls in [lo, hi] (strict flags make a bound exclusive; a NULL bound is
// unbounded on that side). Buckets fully inside the range contribute
// whole, straddling buckets contribute half — coarse, but deterministic
// and monotone, which is all the access-path cost model needs.
func (h Histogram) SelectivityRange(lo, hi sqltypes.Value, loStrict, hiStrict bool) float64 {
	if h.Sampled == 0 || len(h.Buckets) == 0 {
		return 1
	}
	rows := 0.0
	prev := sqltypes.Null // exclusive lower bound of the current bucket
	for _, b := range h.Buckets {
		in := rangeOverlap(prev, b.Hi, lo, hi, loStrict, hiStrict)
		rows += in * float64(b.Rows)
		prev = b.Hi
	}
	return rows / float64(h.Sampled)
}

// rangeOverlap classifies how much of the bucket (bLo, bHi] overlaps the
// query range: 0 (disjoint), 1 (contained), or 0.5 (straddling).
func rangeOverlap(bLo, bHi, lo, hi sqltypes.Value, loStrict, hiStrict bool) float64 {
	// Entirely above: every bucket value exceeds the bucket's exclusive
	// lower bound, so bLo >= hi puts the whole bucket past the range.
	if !hi.IsNull() && !bLo.IsNull() {
		if c, ok := sqltypes.Compare(bLo, hi); ok && c >= 0 {
			return 0
		}
	}
	// Entirely below: the bucket's inclusive upper bound misses lo.
	if !lo.IsNull() {
		if c, ok := sqltypes.Compare(bHi, lo); ok && (c < 0 || (c == 0 && loStrict)) {
			return 0
		}
	}
	loIn := lo.IsNull()
	if !loIn && !bLo.IsNull() {
		if c, ok := sqltypes.Compare(bLo, lo); ok && c >= 0 {
			loIn = true // every bucket value > bLo >= lo
		}
	}
	hiIn := hi.IsNull()
	if !hiIn {
		if c, ok := sqltypes.Compare(bHi, hi); ok && (c < 0 || (c == 0 && !hiStrict)) {
			hiIn = true
		}
	}
	if loIn && hiIn {
		return 1
	}
	return 0.5
}

// TableStatistics is a point-in-time statistics snapshot.
type TableStatistics struct {
	// Rows is the committed live row count (RowCount() when the snapshot
	// was returned, even when the rest of it was built earlier).
	Rows int
	// Distinct holds the distinct-value estimate per column ordinal, -1
	// for a column without an index. NULLs do not contribute (matching
	// index behavior).
	Distinct []int
	// Histograms holds an equi-depth histogram per indexed column (keyed
	// by lower-cased column name) — the inputs the access-path cost model
	// and aggify_stat_columns read.
	Histograms map[string]Histogram
}

// DistinctOf returns the distinct estimate for the named column, or -1
// when the column does not exist or has no index.
func (ts TableStatistics) DistinctOf(s *Schema, column string) int {
	ord := s.Ordinal(column)
	if ord < 0 || ord >= len(ts.Distinct) {
		return -1
	}
	return ts.Distinct[ord]
}

// Drifted reports whether the table has changed enough since stats version
// since for statistics or plans derived at that version to be re-derived:
// by at least a tenth of the rows the cached statistics were built from,
// and by at least one mutation.
func (t *Table) Drifted(since uint64) bool {
	return t.statsVersion.Load()-since >= max(1, uint64(t.statsRows.Load())/10)
}

// StatsBuilds returns how many times the table's statistics were built.
func (t *Table) StatsBuilds() int64 { return t.statsBuilds.Load() }

// Statistics returns the table statistics, rebuilding the cached distinct
// estimates and histograms when the table has Drifted since they were
// built. The drift check runs under statsMu, so callers that waited through
// another caller's rebuild take its snapshot.
func (t *Table) Statistics() TableStatistics {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.statsCache == nil || t.Drifted(t.statsCachedAt) {
		t.buildStatistics()
	}
	st := *t.statsCache
	st.Rows = t.RowCount()
	return st
}

// dropStatistics discards the cached snapshot, so the next read rebuilds.
func (t *Table) dropStatistics() {
	t.statsMu.Lock()
	t.statsCache = nil
	t.statsMu.Unlock()
}

// buildStatistics scans the latest committed state into a new cached
// snapshot. Callers hold statsMu.
func (t *Table) buildStatistics() {
	v := t.statsVersion.Load()
	// Distinct counts and histograms describe the indexed columns only:
	// the access-path cost model and aggify_stat_columns read no others.
	cols := t.IndexColumns()
	ords := make([]int, len(cols))
	sets := make([]map[uint64]struct{}, len(cols))
	vals := make([][]sqltypes.Value, len(cols))
	for i, col := range cols {
		ords[i] = t.Schema.Ordinal(col)
		sets[i] = map[uint64]struct{}{}
	}
	rows := 0
	t.Scan(nil, nil, func(_ int, row []sqltypes.Value) bool {
		rows++
		for i, ord := range ords {
			if val := row[ord]; !val.IsNull() {
				sets[i][sqltypes.Hash(val)] = struct{}{}
				vals[i] = append(vals[i], val)
			}
		}
		return true
	})
	st := &TableStatistics{Rows: rows, Distinct: make([]int, t.Schema.Len()), Histograms: make(map[string]Histogram, len(cols))}
	for i := range st.Distinct {
		st.Distinct[i] = -1
	}
	for i, col := range cols {
		st.Distinct[ords[i]] = len(sets[i])
		st.Histograms[col] = buildHistogram(vals[i], rows)
	}
	t.statsCache = st
	t.statsCachedAt = v
	t.statsRows.Store(int64(rows))
	t.statsBuilds.Add(1)
}

// buildHistogram makes an equi-depth histogram from one column's collected
// non-NULL values. Oversized inputs are strided down deterministically
// before sorting, so the result depends only on the table contents.
func buildHistogram(vals []sqltypes.Value, rows int) Histogram {
	if len(vals) > histogramSampleCap {
		stride := (len(vals) + histogramSampleCap - 1) / histogramSampleCap
		sampled := make([]sqltypes.Value, 0, histogramSampleCap)
		for i := 0; i < len(vals); i += stride {
			sampled = append(sampled, vals[i])
		}
		vals = sampled
	}
	h := Histogram{Sampled: len(vals), Rows: rows}
	if len(vals) == 0 {
		return h
	}
	slices.SortStableFunc(vals, func(a, b sqltypes.Value) int {
		if c, ok := sqltypes.Compare(a, b); ok {
			return c
		}
		return 0
	})
	depth := (len(vals) + HistogramBuckets - 1) / HistogramBuckets
	count, ndv := 0, 0
	for i, v := range vals {
		count++
		if i == 0 {
			ndv = 1
		} else if c, ok := sqltypes.Compare(v, vals[i-1]); !ok || c != 0 {
			ndv++
		}
		// Close the bucket once it is deep enough and the next value
		// differs (bucket boundaries never split a key's duplicates, so
		// each key belongs to exactly one bucket).
		last := i == len(vals)-1
		boundary := false
		if !last && count >= depth {
			if c, ok := sqltypes.Compare(vals[i+1], v); !ok || c != 0 {
				boundary = true
			}
		}
		if last || boundary {
			h.Buckets = append(h.Buckets, HistogramBucket{Hi: v, Rows: count, NDV: ndv})
			count, ndv = 0, 0
		}
	}
	return h
}
