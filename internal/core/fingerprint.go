package core

import "math"

// Fingerprint is a 64-bit content hash of a cost matrix: two matrices with
// bitwise-equal sizes and values have equal fingerprints, and any value
// change yields a different fingerprint with overwhelming probability. It is
// the content-addressed cache key of the serving layer: the shared
// preprocessing, a cluster-rounded cost set per cluster count, is a pure
// function of the matrix content, so
// problems from different tenants whose measurements produced identical
// matrices can share one set keyed by fingerprint.
//
// The zero value is reserved to mean "no fingerprint": the hash never
// returns 0, so callers can use 0 as an absent marker (e.g. an Epoch whose
// producer did not fill the field).
type Fingerprint uint64

// FNV-1a constants, applied word-at-a-time: each 64-bit float pattern is
// folded whole instead of byte-by-byte. Not the standard byte-stream FNV,
// but an order-sensitive multiply-xor mix with the same constants — fine
// for a content key, and 8x fewer multiplies on a million-entry matrix.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashCostRow hashes one row's float bit patterns.
func hashCostRow(row []float64) uint64 {
	h := fnvOffset64
	for _, v := range row {
		h ^= math.Float64bits(v)
		h *= fnvPrime64
	}
	return h
}

// combineRowHashes folds the per-row hashes (in row order) together with the
// matrix size into one fingerprint, remapping the reserved zero value.
func combineRowHashes(n int, rowHash []uint64) Fingerprint {
	h := fnvOffset64
	h ^= uint64(n)
	h *= fnvPrime64
	for _, r := range rowHash {
		h ^= r
		h *= fnvPrime64
	}
	if h == 0 {
		h = 1
	}
	return Fingerprint(h)
}

// Fingerprint returns the matrix's content hash in O(n^2). Producers that
// mutate a matrix row-by-row across epochs should use
// MutableCostMatrix.Fingerprint instead, which rehashes only changed rows.
func (m *CostMatrix) Fingerprint() Fingerprint {
	rowHash := make([]uint64, m.n)
	for i := 0; i < m.n; i++ {
		rowHash[i] = hashCostRow(m.Row(i))
	}
	return combineRowHashes(m.n, rowHash)
}

// Fingerprint returns the content hash of the matrix's current values,
// maintained incrementally: only rows written with a different value since
// the last Fingerprint call are rehashed, so a streaming producer that
// publishes epochs touching few rows pays O(changed*n + n) per epoch, not
// O(n^2). The result equals CostMatrix.Fingerprint() of a Snapshot taken at
// the same state.
func (m *MutableCostMatrix) Fingerprint() Fingerprint {
	for i, d := range m.hashDirty {
		if d {
			m.rowHash[i] = hashCostRow(m.c[i*m.n : (i+1)*m.n])
			m.hashDirty[i] = false
		}
	}
	return combineRowHashes(m.n, m.rowHash)
}
