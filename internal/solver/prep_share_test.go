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

// Adopted artifacts must be the exact structures the donor computed, and
// must be what the adopter would have computed itself.
func TestExportAdoptRounded(t *testing.T) {
	pa, pb := shareTestProblem(t, 1)
	if _, ok := pa.Prep().ExportRounded(4); ok {
		t.Fatal("exported a never-computed entry")
	}
	ma, pairsA, err := pa.Prep().Rounded(4)
	if err != nil {
		t.Fatal(err)
	}
	art, ok := pa.Prep().ExportRounded(4)
	if !ok {
		t.Fatal("computed entry not exportable")
	}
	if art.ClusterK() != 4 {
		t.Fatalf("artifact k = %d, want 4", art.ClusterK())
	}
	if !pb.Prep().AdoptRounded(art) {
		t.Fatal("adoption into an empty slot failed")
	}
	mb, pairsB, err := pb.Prep().Rounded(4)
	if err != nil {
		t.Fatal(err)
	}
	if mb != ma {
		t.Fatal("adopted Prep did not serve the shared matrix")
	}
	if !reflect.DeepEqual(pairsA, pairsB) {
		t.Fatal("adopted pair list differs")
	}
	// Independently computed artifacts over equal content must be
	// bit-identical to the shared one (determinism of the fit).
	pc, _ := shareTestProblem(t, 1)
	mc, pairsC, err := pc.Prep().Rounded(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mc.Row(3), ma.Row(3)) || !reflect.DeepEqual(pairsC, pairsA) {
		t.Fatal("fresh fit over equal content differs from shared artifact")
	}
	// Adoption must refuse occupied slots.
	if pa.Prep().AdoptRounded(art) {
		t.Fatal("adoption replaced an existing entry")
	}
}

func TestExportAdoptCheapestRows(t *testing.T) {
	pa, pb := shareTestProblem(t, 3)
	if _, ok := pa.Prep().ExportCheapestRows(); ok {
		t.Fatal("exported never-computed rows")
	}
	rowsA := pa.Prep().CheapestRows()
	art, ok := pa.Prep().ExportCheapestRows()
	if !ok {
		t.Fatal("computed rows not exportable")
	}
	if !pb.Prep().AdoptCheapestRows(art) {
		t.Fatal("row adoption failed")
	}
	rowsB := pb.Prep().CheapestRows()
	if &rowsA[0][0] != &rowsB[0][0] {
		t.Fatal("adopted Prep did not serve the shared rows")
	}
	if pa.Prep().AdoptCheapestRows(art) {
		t.Fatal("adoption succeeded on a Prep that already computed rows")
	}
}
