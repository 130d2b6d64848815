package solver

import (
	"math/rand"
	"reflect"
	"testing"

	"cloudia/internal/core"
)

func shareTestProblem(t *testing.T, seed int64) (*Problem, *Problem) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := core.NewGraph(8)
	for v := 0; v+1 < 8; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	m := core.NewCostMatrix(12)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	pa, err := NewProblem(g, m, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	// A second problem over a distinct but bitwise-equal matrix, as two
	// tenants with identical measurements would hold.
	pb, err := NewProblem(g, m.Clone(), LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

// A donor exports its matrix set with Matrix() and an adopter installs it
// with ShareMatrix: the adopter must serve the exact rounded structures the
// donor computed, they must be what it would have computed itself, and a
// Prep that already read its own set must refuse adoption.
func TestExportAdoptRounded(t *testing.T) {
	pa, pb := shareTestProblem(t, 1)
	ma, pairsA, err := pa.Prep().Rounded(4)
	if err != nil {
		t.Fatal(err)
	}
	if !pb.Prep().ShareMatrix(pa.Prep().Matrix()) {
		t.Fatal("adoption into a Prep that read nothing failed")
	}
	mb, pairsB, err := pb.Prep().Rounded(4)
	if err != nil {
		t.Fatal(err)
	}
	if mb != ma || &pairsB[0] != &pairsA[0] {
		t.Fatal("adopted Prep did not serve the donor's rounded artifacts")
	}

	// Independently computed artifacts over equal content must be
	// bit-identical to the shared ones (determinism of the fit).
	pc, _ := shareTestProblem(t, 1)
	mc, pairsC, err := pc.Prep().Rounded(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mc.Size(); i++ {
		if !reflect.DeepEqual(mc.Row(i), ma.Row(i)) {
			t.Fatalf("fresh fit row %d differs from the shared artifact", i)
		}
	}
	if !reflect.DeepEqual(pairsC, pairsA) {
		t.Fatal("fresh pair list over equal content differs from the shared one")
	}
	// pc read its own set: adoption is refused and its artifacts stay.
	if pc.Prep().ShareMatrix(pa.Prep().Matrix()) {
		t.Fatal("adoption replaced a set the Prep had already read")
	}
	if m, _, _ := pc.Prep().Rounded(4); m != mc {
		t.Fatal("refused adoption changed the Prep's artifacts")
	}
}

// The cheapest rows travel with the matrix set: an adopter serves the
// donor's rows by reference, and a set installed once is never replaced.
func TestExportAdoptCheapestRows(t *testing.T) {
	pa, pb := shareTestProblem(t, 3)
	rowsA := pa.Prep().CheapestRows()
	if !pb.Prep().ShareMatrix(pa.Prep().Matrix()) {
		t.Fatal("adoption into a Prep that read nothing failed")
	}
	rowsB := pb.Prep().CheapestRows()
	if &rowsA[0][0] != &rowsB[0][0] {
		t.Fatal("adopted Prep did not serve the shared rows")
	}
	if pb.Prep().ShareMatrix(NewMatrixPrep(pb.Costs)) {
		t.Fatal("a second set replaced the adopted one")
	}
	if pa.Prep().ShareMatrix(NewMatrixPrep(pa.Costs)) {
		t.Fatal("adoption succeeded on a Prep that already computed rows")
	}
	pc, _ := shareTestProblem(t, 3)
	if !reflect.DeepEqual(pc.Prep().CheapestRows(), rowsA) {
		t.Fatal("fresh rows over equal content differ from the shared ones")
	}
}

// SharedReads counts each artifact once: a miss for the Prep whose read ran
// the build, a hit for a Prep reading it from a shared set.
func TestSharedReadsCountsBuilds(t *testing.T) {
	pa, pb := shareTestProblem(t, 5)
	pb.Prep().ShareMatrix(pa.Prep().Matrix())
	for i := 0; i < 2; i++ {
		pa.Prep().Rounded(3)
		pa.Prep().CheapestRows()
	}
	pb.Prep().Rounded(3)
	pb.Prep().CheapestRows()
	pb.Prep().Rounded(5)
	if h, m := pa.Prep().SharedReads(); h != 0 || m != 2 {
		t.Fatalf("builder hits/misses = %d/%d, want 0/2", h, m)
	}
	if h, m := pb.Prep().SharedReads(); h != 2 || m != 1 {
		t.Fatalf("sharer hits/misses = %d/%d, want 2/1", h, m)
	}
}
