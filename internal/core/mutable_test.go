package core

import (
	"reflect"
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
		t.Fatal("snapshot shares storage with the mutable matrix")
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
