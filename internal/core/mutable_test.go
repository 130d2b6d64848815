package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

func TestMutableCostMatrixTracksChangedRows(t *testing.T) {
	m := NewMutableCostMatrix(4)
	if m.Epoch() != 0 {
		t.Fatalf("fresh matrix at epoch %d, want 0", m.Epoch())
	}
	if !m.Set(1, 2, 3.5) || !m.Set(3, 0, 1.25) {
		t.Fatal("first writes must report a change")
	}
	if m.Set(1, 2, 3.5) {
		t.Fatal("re-writing an identical value must not report a change")
	}
	if got := m.ChangedRows(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("ChangedRows = %v, want [1 3]", got)
	}

	snap, rows := m.Snapshot()
	if !reflect.DeepEqual(rows, []int{1, 3}) {
		t.Fatalf("snapshot changed rows = %v, want [1 3]", rows)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d after snapshot, want 1", m.Epoch())
	}
	if snap.At(1, 2) != 3.5 || snap.At(3, 0) != 1.25 {
		t.Fatal("snapshot does not carry the written values")
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}

	// Dirty set cleared: an identical re-fold publishes an empty epoch.
	m.Set(1, 2, 3.5)
	if _, rows := m.Snapshot(); len(rows) != 0 {
		t.Fatalf("identical re-fold reported changed rows %v", rows)
	}

	// Snapshots are isolated from later mutation.
	m.Set(1, 2, 9)
	if snap.At(1, 2) != 3.5 {
		t.Fatal("a later Set reached the snapshot")
	}
}

func TestMutableCostMatrixAt(t *testing.T) {
	m := NewMutableCostMatrix(3)
	m.Set(0, 2, 7)
	if m.At(0, 2) != 7 || m.At(2, 0) != 0 {
		t.Fatal("At does not reflect Set")
	}
	if m.Size() != 3 {
		t.Fatalf("Size = %d", m.Size())
	}
}

// Revert undoes one Snapshot: values, fingerprint, dirty set and epoch all
// return to what the previous snapshot published.
func TestMutableCostMatrixRevert(t *testing.T) {
	m := NewMutableCostMatrix(3)
	m.Set(0, 1, 2)
	m.Set(2, 0, 4)
	prev, _ := m.Snapshot()
	fp := m.Fingerprint()

	m.Set(0, 1, 5)
	m.Set(1, 2, 6)
	_, rows := m.Snapshot()
	if m.Fingerprint() == fp {
		t.Fatal("changed matrix kept its fingerprint")
	}
	m.Revert(prev, rows)
	if m.At(0, 1) != 2 || m.At(1, 2) != 0 || m.At(2, 0) != 4 {
		t.Fatal("Revert did not restore the previous snapshot's values")
	}
	if m.Fingerprint() != fp {
		t.Fatal("Revert did not restore the fingerprint")
	}
	if got := m.ChangedRows(); len(got) != 0 {
		t.Fatalf("rows %v dirty after Revert", got)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d after Revert, want 1", m.Epoch())
	}
}

// Adopt moves the matrix onto an identical snapshot's storage, shared, and
// refuses a snapshot of another size or other bits without changing
// anything.
func TestMutableCostMatrixAdopt(t *testing.T) {
	m := NewMutableCostMatrix(3)
	m.Set(0, 1, 2)
	m.Set(2, 0, 4)
	own, _ := m.Snapshot()
	fp := m.Fingerprint()
	other := own.Clone()

	bigger := NewCostMatrix(4)
	neg := own.Clone()
	neg.Set(1, 1, math.Copysign(0, -1))
	for name, bad := range map[string]*CostMatrix{"size": bigger, "-0": neg} {
		if err := m.Adopt(bad); err == nil {
			t.Fatalf("%s mismatch adopted", name)
		}
	}
	if !own.Identical(other) || m.Fingerprint() != fp || m.Epoch() != 1 {
		t.Fatal("a refused Adopt changed the matrix")
	}

	if err := m.Adopt(other); err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() != fp || m.Epoch() != 1 || len(m.ChangedRows()) != 0 {
		t.Fatal("Adopt changed the fingerprint, epoch or dirty rows")
	}
	if &m.c[0] != &other.c[0] {
		t.Fatal("Adopt did not move the matrix onto the snapshot's storage")
	}
	// The adopted storage is shared: a changing Set copies it first.
	m.Set(0, 1, 5)
	if other.At(0, 1) != 2 || m.At(0, 1) != 5 {
		t.Fatal("a Set after Adopt wrote through to the adopted snapshot")
	}
	if snap, rows := m.Snapshot(); !slices.Equal(rows, []int{0}) || snap.At(2, 0) != 4 {
		t.Fatalf("snapshot after Adopt: rows %v", rows)
	}
}

// cowOp is one step of a copy-on-write sequence: a Set of (i, j) to v, a
// Set that rewrites the value already there, a Snapshot, or a Revert of
// the most recent Snapshot to the one before it.
type cowOp struct {
	kind byte // 's' set, 'n' no-op set, 'S' snapshot, 'R' revert
	i, j int
	v    float64
}

func cowSet(i, j int, v float64) cowOp { return cowOp{kind: 's', i: i, j: j, v: v} }
func cowNoop(i, j int) cowOp           { return cowOp{kind: 'n', i: i, j: j} }

var (
	cowSnapshot = cowOp{kind: 'S'}
	cowRevert   = cowOp{kind: 'R'}
)

// cowRef is a deep-copied reference for one handed-out snapshot: the values
// and changed rows it must show for as long as anyone holds it.
type cowRef struct {
	snap *CostMatrix
	vals []float64
	rows []int
}

// TestMutableCostMatrixCopyOnWrite drives Snapshot/Set/Revert sequences
// through a MutableCostMatrix and a deep-copied reference side by side.
// After every step the changed rows and fingerprint match the reference's,
// and every snapshot handed out still holds the values it was published
// with, whatever was Set or Reverted after it.
func TestMutableCostMatrixCopyOnWrite(t *testing.T) {
	cases := []struct {
		name string
		ops  []cowOp
	}{
		{"set after snapshot", []cowOp{cowSet(0, 1, 1), cowSnapshot, cowSet(0, 1, 2), cowSet(2, 0, 3), cowSnapshot, cowSet(0, 1, 4)}},
		{"no-op sets keep sharing", []cowOp{cowSet(1, 2, 5), cowSnapshot, cowNoop(1, 2), cowNoop(0, 1), cowSnapshot, cowSet(1, 2, 6), cowSnapshot}},
		{"revert restores the previous snapshot", []cowOp{cowSet(0, 1, 1), cowSnapshot, cowSet(0, 1, 2), cowSet(1, 0, 7), cowSnapshot, cowRevert, cowSet(0, 2, 9), cowSnapshot}},
		{"revert of an empty epoch", []cowOp{cowSet(2, 1, 1), cowSnapshot, cowSnapshot, cowRevert, cowSet(2, 1, 3), cowSnapshot}},
		{"revert twice", []cowOp{cowSet(0, 1, 1), cowSnapshot, cowSet(1, 2, 2), cowSnapshot, cowSet(2, 0, 3), cowSnapshot, cowRevert, cowRevert, cowSet(1, 2, 8), cowSnapshot, cowRevert}},
		{"set back to the snapshot's value", []cowOp{cowSet(0, 1, 1), cowSnapshot, cowSet(0, 1, 2), cowSet(0, 1, 1), cowSnapshot, cowRevert, cowSnapshot}},
		{"sets before any snapshot", []cowOp{cowSet(0, 1, 1), cowSet(0, 1, 2), cowNoop(0, 1), cowSet(1, 2, 3), cowSnapshot}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3
			m := NewMutableCostMatrix(n)
			vals := make([]float64, n*n)
			dirty := map[int]bool{}
			var handed []cowRef // every snapshot handed out
			var stack []cowRef  // the snapshots a Revert can return to
			for step, op := range tc.ops {
				switch op.kind {
				case 's':
					if changed := m.Set(op.i, op.j, op.v); changed != (vals[op.i*n+op.j] != op.v) {
						t.Fatalf("step %d: Set reported change %v", step, changed)
					}
					if vals[op.i*n+op.j] != op.v {
						vals[op.i*n+op.j], dirty[op.i] = op.v, true
					}
				case 'n':
					if m.Set(op.i, op.j, vals[op.i*n+op.j]) {
						t.Fatalf("step %d: no-op Set reported a change", step)
					}
				case 'S':
					snap, rows := m.Snapshot()
					var want []int
					for i := 0; i < n; i++ {
						if dirty[i] {
							want = append(want, i)
						}
					}
					if !reflect.DeepEqual(rows, want) {
						t.Fatalf("step %d: Snapshot rows %v, want %v", step, rows, want)
					}
					ref := cowRef{snap: snap, vals: slices.Clone(vals), rows: rows}
					handed, stack, dirty = append(handed, ref), append(stack, ref), map[int]bool{}
				case 'R':
					top, prev := stack[len(stack)-1], stack[len(stack)-2]
					m.Revert(prev.snap, top.rows)
					stack = stack[:len(stack)-1]
					copy(vals, prev.vals)
				}

				var want []int
				for i := 0; i < n; i++ {
					if dirty[i] {
						want = append(want, i)
					}
				}
				if got := m.ChangedRows(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: ChangedRows %v, want %v", step, got, want)
				}
				ref := NewCostMatrix(n)
				copy(ref.c, vals)
				if got, want := m.Fingerprint(), ref.Fingerprint(); got != want {
					t.Fatalf("step %d: Fingerprint %016x, want the reference's %016x", step, uint64(got), uint64(want))
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if m.At(i, j) != vals[i*n+j] {
							t.Fatalf("step %d: At(%d,%d) = %g, want %g", step, i, j, m.At(i, j), vals[i*n+j])
						}
					}
				}
				if m.Epoch() != len(stack) {
					t.Fatalf("step %d: epoch %d, want %d", step, m.Epoch(), len(stack))
				}
				for k, h := range handed {
					if !slices.Equal(h.snap.c, h.vals) {
						t.Fatalf("step %d: snapshot %d changed after it was handed out: %v, want %v", step, k, h.snap.c, h.vals)
					}
				}
			}
		})
	}
}

// Snapshot hands out the matrix's storage instead of copying it, and a Set
// that changes nothing copies nothing; the first changing Set after a
// Snapshot pays the one n² copy.
func TestMutableCostMatrixSnapshotCopiesNothing(t *testing.T) {
	const n = 256
	matrixBytes := uint64(n * n * 8)
	m := NewMutableCostMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, (i+1)%n, float64(i+1))
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var snap *CostMatrix
	if b := allocated(func() { snap, _ = m.Snapshot() }); b >= matrixBytes/4 {
		t.Fatalf("Snapshot allocated %d bytes, want far less than the %d-byte matrix", b, matrixBytes)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Set(3, 4, m.At(3, 4)) }); allocs != 0 {
		t.Fatalf("no-op Set after a Snapshot made %v allocations, want 0", allocs)
	}
	if b := allocated(func() { m.Set(3, 4, 99) }); b < matrixBytes {
		t.Fatalf("first changing Set after a Snapshot allocated %d bytes, want the %d-byte copy", b, matrixBytes)
	}
	if snap.At(3, 4) != 4 || m.At(3, 4) != 99 {
		t.Fatal("the changing Set reached the snapshot")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Set(3, 4, m.At(3, 4)+1) }); allocs != 0 {
		t.Fatalf("changing Set on private storage made %v allocations, want 0", allocs)
	}
}

// A consumer scanning a snapshot while the producer keeps Setting and
// snapshotting sees exactly the values published; under -race the detector
// also proves no Set writes storage a snapshot still reads.
func TestMutableCostMatrixSnapshotConcurrentScan(t *testing.T) {
	const n, epochs = 48, 40
	type published struct {
		snap *CostMatrix
		want []float64
	}
	ch := make(chan published, 4)
	errc := make(chan error, 1)
	go func() {
		var err error
		for p := range ch {
			if err == nil && !slices.Equal(p.snap.c, p.want) {
				err = fmt.Errorf("snapshot %v, want %v", p.snap.c, p.want)
			}
		}
		errc <- err
	}()
	m := NewMutableCostMatrix(n)
	vals := make([]float64, n*n)
	for e := 1; e <= epochs; e++ {
		for k := 0; k < n; k++ {
			i, j := (e*7+k)%n, (e+k*5)%n
			if i == j {
				continue
			}
			m.Set(i, j, float64(e))
			vals[i*n+j] = float64(e)
		}
		m.Set(0, 1, m.At(0, 1)) // a no-op Set while the last snapshot is shared
		snap, _ := m.Snapshot()
		ch <- published{snap: snap, want: slices.Clone(vals)}
	}
	close(ch)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
