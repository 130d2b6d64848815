package core

import (
	"fmt"
	"math"
)

// MutableCostMatrix is a cost matrix under construction by a streaming
// producer — typically measure.Stream folding per-pair latency summaries in
// as snapshots mature — that tracks which rows changed between published
// epochs. Consumers receive immutable CostMatrix snapshots plus the set of
// rows whose values differ from the previous snapshot, from which the
// content fingerprint is maintained incrementally.
//
// Snapshots are copy-on-write: a snapshot shares the matrix's storage until
// the next Set that changes a value, which first moves the matrix to a
// private copy. A producer that publishes every epoch therefore holds one
// copy of the matrix between epochs, and pays one n² copy in an epoch that
// changes something, none in one that does not.
//
// A MutableCostMatrix is not safe for concurrent use; the single producer
// mutates it and hands immutable snapshots to concurrent consumers.
type MutableCostMatrix struct {
	n     int
	c     []float64
	dirty []bool
	epoch int
	// shared marks c as also held by a published snapshot, so the next
	// changing Set must copy it before writing.
	shared bool

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
// changed. A cost is its bit pattern, as Fingerprint hashes it: writing -0
// over +0 is a change, so the matrix holds exactly the values written and
// its fingerprint equals CostMatrix.Fingerprint of those values, whatever
// the history. Row i is marked dirty only on a real (bitwise) change, so
// producers can blindly re-fold full estimates every epoch and still hand
// consumers an exact changed-row set. The first changing Set after a
// Snapshot copies the storage the snapshot shares; a Set that changes
// nothing copies nothing.
func (m *MutableCostMatrix) Set(i, j int, v float64) bool {
	k := i*m.n + j
	if math.Float64bits(m.c[k]) == math.Float64bits(v) {
		return false
	}
	if m.shared {
		c := make([]float64, len(m.c))
		copy(c, m.c)
		m.c, m.shared = c, false
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

// Snapshot publishes the current state: an immutable CostMatrix plus the
// rows changed since the previous snapshot (ascending). The dirty set is
// cleared and the epoch counter advances. The returned matrix shares
// storage with the mutable one until the next changing Set, which copies
// it first, so later Sets cannot disturb consumers. Consumers must not
// write into it.
func (m *MutableCostMatrix) Snapshot() (*CostMatrix, []int) {
	out := &CostMatrix{n: m.n, c: m.c}
	m.shared = true
	rows := m.ChangedRows()
	for i := range m.dirty {
		m.dirty[i] = false
	}
	m.epoch++
	return out, rows
}

// Adopt moves the matrix onto snap's storage, marked shared, so the next
// changing Set copies it first, exactly as after a Snapshot. snap must hold
// the matrix's current values bit for bit (CostMatrix.Identical): Adopt
// refuses a size or content mismatch and leaves the matrix as it was. It
// lets a holder of many equal matrices keep one copy of their content: a
// snapshot published here is dropped for an equal one published elsewhere.
// Values, dirty rows, fingerprint and epoch are unchanged.
func (m *MutableCostMatrix) Adopt(snap *CostMatrix) error {
	if snap.n != m.n {
		return fmt.Errorf("core: adopting a %d x %d snapshot into a %d x %d matrix", snap.n, snap.n, m.n, m.n)
	}
	if !snap.Identical(&CostMatrix{n: m.n, c: m.c}) {
		return fmt.Errorf("core: adopting a snapshot whose values differ from the matrix's")
	}
	m.c, m.shared = snap.c, true
	return nil
}

// Revert undoes the most recent Snapshot when nothing has been Set since:
// the matrix goes back to prev's storage (prev is the snapshot before it,
// which stays shared), rows (the changed rows that Snapshot reported) are
// rehashed on the next Fingerprint, the dirty set stays empty, and the
// epoch counter steps back. It is the rollback of a publish that its
// consumer failed to commit; the fingerprint afterwards is prev's again.
func (m *MutableCostMatrix) Revert(prev *CostMatrix, rows []int) {
	m.c, m.shared = prev.c, true
	for _, i := range rows {
		m.hashDirty[i] = true
	}
	m.epoch--
}
