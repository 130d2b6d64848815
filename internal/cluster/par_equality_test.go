package cluster

import (
	"slices"
	"testing"

	"cloudia/internal/par"
)

// Every parallelized artifact in this package promises bit-equality with the
// single-worker build. These tests run the same inputs at several worker
// counts and require identical bytes out — rounded matrices, re-rounded pair
// lists, and patched epoch artifacts alike.
func TestRoundingBitEqualAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	const n, k = 30, 5
	m := randMatrix(n, 17)

	par.SetWorkers(1)
	wantM, wantPairs, wantRes, err := RoundCostMatrixPairsResult(m, k)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{2, 3, 8} {
		par.SetWorkers(w)
		gotM, gotPairs, gotRes, err := RoundCostMatrixPairsResult(m, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotPairs, wantPairs) {
			t.Fatalf("workers=%d: rounded pair list diverges from sequential", w)
		}
		if !slices.Equal(gotRes.Centers, wantRes.Centers) {
			t.Fatalf("workers=%d: k-means centers diverge from sequential", w)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if gotM.At(i, j) != wantM.At(i, j) {
					t.Fatalf("workers=%d: rounded matrix diverges from sequential at (%d,%d)", w, i, j)
				}
			}
		}
	}
}

func TestPatchBitEqualAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	const n, k = 24, 4
	m0 := randMatrix(n, 5)
	rounded0, pairs0, res, err := RoundCostMatrixPairsResult(m0, k)
	if err != nil {
		t.Fatal(err)
	}
	// Unsorted with a duplicate: normalization must make worker chunking
	// independent of the caller's row order.
	changed := []int{9, 2, 17, 2, 0}
	m1 := perturbRows(m0, changed, 23)

	par.SetWorkers(1)
	wantM := PatchRoundedRows(m1, rounded0, res, changed)
	wantPairs := PatchSortedPairs(m1, pairs0, changed)

	for _, w := range []int{2, 3, 8} {
		par.SetWorkers(w)
		gotM := PatchRoundedRows(m1, rounded0, res, changed)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if gotM.At(i, j) != wantM.At(i, j) {
					t.Fatalf("workers=%d: PatchRoundedRows diverges at (%d,%d)", w, i, j)
				}
			}
		}
		if got := PatchSortedPairs(m1, pairs0, changed); !slices.Equal(got, wantPairs) {
			t.Fatalf("workers=%d: PatchSortedPairs diverges from sequential", w)
		}
	}
}
