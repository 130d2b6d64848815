package core

import "fmt"

// MutableCostMatrix is a cost matrix under construction by a streaming
// producer — typically measure.Stream folding per-pair latency summaries in
// as snapshots mature — that tracks which rows changed between published
// epochs. Consumers receive immutable CostMatrix snapshots plus the set of
// rows whose values differ from the previous snapshot, from which the
// content fingerprint is maintained incrementally.
//
// A MutableCostMatrix is not safe for concurrent use; the single producer
// mutates it and hands immutable snapshots to concurrent consumers.
type MutableCostMatrix struct {
	n     int
	c     []float64
	dirty []bool
	epoch int

	// Incremental fingerprint state: rowHash holds each row's content hash,
	// hashDirty marks rows written since it was last computed. The two dirty
	// sets are independent — Snapshot clears dirty without touching
	// hashDirty, so Fingerprint stays cheap no matter how the caller
	// interleaves the two.
	rowHash   []uint64
	hashDirty []bool
}

// NewMutableCostMatrix returns an n x n zero mutable cost matrix at epoch 0.
func NewMutableCostMatrix(n int) *MutableCostMatrix {
	if n < 0 {
		panic(fmt.Sprintf("core: negative cost matrix size %d", n))
	}
	m := &MutableCostMatrix{
		n:         n,
		c:         make([]float64, n*n),
		dirty:     make([]bool, n),
		rowHash:   make([]uint64, n),
		hashDirty: make([]bool, n),
	}
	for i := range m.hashDirty {
		m.hashDirty[i] = true
	}
	return m
}

// Size reports the number of instances covered by the matrix.
func (m *MutableCostMatrix) Size() int { return m.n }

// At returns the current CL(i, j).
func (m *MutableCostMatrix) At(i, j int) float64 { return m.c[i*m.n+j] }

// Set assigns CL(i, j) = v and reports whether the stored value actually
// changed. Row i is marked dirty only on a real (bitwise) change, so
// producers can blindly re-fold full estimates every epoch and still hand
// consumers an exact changed-row set.
func (m *MutableCostMatrix) Set(i, j int, v float64) bool {
	k := i*m.n + j
	if m.c[k] == v {
		return false
	}
	m.c[k] = v
	m.dirty[i] = true
	m.hashDirty[i] = true
	return true
}

// Epoch reports how many snapshots have been published.
func (m *MutableCostMatrix) Epoch() int { return m.epoch }

// ChangedRows returns the rows written with a different value since the last
// snapshot, in ascending order. It does not reset the dirty set.
func (m *MutableCostMatrix) ChangedRows() []int {
	var rows []int
	for i, d := range m.dirty {
		if d {
			rows = append(rows, i)
		}
	}
	return rows
}

// Snapshot publishes the current state: an immutable CostMatrix copy plus
// the rows changed since the previous snapshot (ascending). The dirty set is
// cleared and the epoch counter advances. The returned matrix shares no
// storage with the mutable one, so later Sets cannot disturb consumers.
func (m *MutableCostMatrix) Snapshot() (*CostMatrix, []int) {
	out := NewCostMatrix(m.n)
	copy(out.c, m.c)
	rows := m.ChangedRows()
	for i := range m.dirty {
		m.dirty[i] = false
	}
	m.epoch++
	return out, rows
}

// Revert undoes the most recent Snapshot when nothing has been Set since:
// rows (the changed rows that Snapshot reported) are restored from prev (the
// snapshot before it), the dirty set stays empty, and the epoch counter
// steps back. It is the rollback of a publish that its consumer failed to
// commit; the fingerprint afterwards is prev's again.
func (m *MutableCostMatrix) Revert(prev *CostMatrix, rows []int) {
	for _, i := range rows {
		copy(m.c[i*m.n:(i+1)*m.n], prev.Row(i))
		m.hashDirty[i] = true
	}
	m.epoch--
}
