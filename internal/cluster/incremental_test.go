package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"cloudia/internal/core"
)

func randMatrix(n int, seed int64) *core.CostMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := core.NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	return m
}

// perturbRows returns a copy of m with every off-diagonal entry of the given
// rows redrawn.
func perturbRows(m *core.CostMatrix, rows []int, seed int64) *core.CostMatrix {
	rng := rand.New(rand.NewSource(seed))
	out := m.Clone()
	for _, i := range rows {
		for j := 0; j < m.Size(); j++ {
			if i != j {
				out.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	return out
}

// TestPatchRoundedRows pins the incremental re-rounding contract: unchanged
// rows keep their previous rounded values bit-for-bit, changed rows carry
// the nearest-center assignment of the new source values.
func TestPatchRoundedRows(t *testing.T) {
	const n, k = 12, 4
	m0 := randMatrix(n, 3)
	rounded0, _, res, err := RoundCostMatrixPairsResult(m0, k)
	if err != nil {
		t.Fatal(err)
	}
	changed := []int{2, 7, 9}
	m1 := perturbRows(m0, changed, 11)

	patched := PatchRoundedRows(m1, rounded0, res, changed)
	isChanged := map[int]bool{2: true, 7: true, 9: true}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			want := rounded0.At(i, j)
			if isChanged[i] {
				want = res.Assign(m1.At(i, j))
			}
			if patched.At(i, j) != want {
				t.Fatalf("patched(%d,%d) = %g, want %g", i, j, patched.At(i, j), want)
			}
		}
	}
	// prev must not be modified.
	check, _, _, _ := RoundCostMatrixPairsResult(m0, k)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rounded0.At(i, j) != check.At(i, j) {
				t.Fatal("PatchRoundedRows mutated its prev argument")
			}
		}
	}
}

// TestPatchRoundedRowsUnclustered covers the k<=0 path (nil Result): changed
// rows take raw source values.
func TestPatchRoundedRowsUnclustered(t *testing.T) {
	m0 := randMatrix(6, 5)
	m1 := perturbRows(m0, []int{1, 4}, 7)
	patched := PatchRoundedRows(m1, m0, nil, []int{1, 4})
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := m0.At(i, j)
			if i == 1 || i == 4 {
				want = m1.At(i, j)
			}
			if patched.At(i, j) != want {
				t.Fatalf("patched(%d,%d) = %g, want %g", i, j, patched.At(i, j), want)
			}
		}
	}
}

// TestPatchSortedPairs verifies the merged pair list is sorted ascending and
// is, as a multiset, exactly the pair list of the patched matrix.
func TestPatchSortedPairs(t *testing.T) {
	const n = 15
	m0 := randMatrix(n, 9)
	pairs0 := m0.SortedPairs()
	changed := []int{0, 5, 14}
	m1 := perturbRows(m0, changed, 13)

	got := PatchSortedPairs(m1, pairs0, changed)
	if len(got) != n*(n-1) {
		t.Fatalf("patched pair list has %d entries, want %d", len(got), n*(n-1))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Cost < got[i-1].Cost {
			t.Fatalf("pair list not ascending at %d", i)
		}
	}
	key := func(p core.CostPair) [3]float64 {
		return [3]float64{float64(p.From), float64(p.To), p.Cost}
	}
	want := m1.SortedPairs()
	gotKeys := make([][3]float64, len(got))
	wantKeys := make([][3]float64, len(want))
	for i := range got {
		gotKeys[i] = key(got[i])
		wantKeys[i] = key(want[i])
	}
	less := func(ks [][3]float64) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := ks[i], ks[j]
			for x := 0; x < 3; x++ {
				if a[x] != b[x] {
					return a[x] < b[x]
				}
			}
			return false
		}
	}
	sort.Slice(gotKeys, less(gotKeys))
	sort.Slice(wantKeys, less(wantKeys))
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("pair multiset differs at %d: %v vs %v", i, gotKeys[i], wantKeys[i])
		}
	}
	// Every pair from an unchanged row must keep its previous cost.
	isChanged := map[int32]bool{0: true, 5: true, 14: true}
	prevCost := make(map[[2]int32]float64, len(pairs0))
	for _, p := range pairs0 {
		prevCost[[2]int32{p.From, p.To}] = p.Cost
	}
	for _, p := range got {
		if !isChanged[p.From] && prevCost[[2]int32{p.From, p.To}] != p.Cost {
			t.Fatalf("unchanged pair (%d,%d) cost drifted", p.From, p.To)
		}
	}
}

// TestPatchSortedPairsAllRows degenerates to a full rebuild: every row
// changed.
func TestPatchSortedPairsAllRows(t *testing.T) {
	m0 := randMatrix(5, 17)
	all := []int{0, 1, 2, 3, 4}
	m1 := perturbRows(m0, all, 19)
	got := PatchSortedPairs(m1, m0.SortedPairs(), all)
	want := m1.SortedPairs()
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Cost != want[i].Cost {
			t.Fatalf("cost sequence differs at %d", i)
		}
	}
}

// TestPatchOnTiesMatchesFreshBuild patches a tie-heavy matrix with an
// unsorted row list holding a duplicate. PatchRoundedRows must re-assign
// exactly the changed rows, and PatchSortedPairs must give the kept pairs
// in their previous order merged, kept first on cost ties, with the
// changed rows' pairs freshly sorted by (cost, row, column).
func TestPatchOnTiesMatchesFreshBuild(t *testing.T) {
	const n, k = 24, 4
	rng := rand.New(rand.NewSource(5))
	vals := []float64{0.25, 0.5, 0.75, 1.5, 3}
	tied := func(rows []int, m *core.CostMatrix) *core.CostMatrix {
		out := m.Clone()
		for _, i := range rows {
			for j := 0; j < n; j++ {
				if i != j {
					out.Set(i, j, vals[rng.Intn(len(vals))])
				}
			}
		}
		return out
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	m0 := tied(all, core.NewCostMatrix(n))
	rounded0, _, res, err := RoundCostMatrixPairsResult(m0, k)
	if err != nil {
		t.Fatal(err)
	}
	pairs0 := m0.SortedPairs()
	changed := []int{9, 2, 17, 2, 0}
	m1 := tied(changed, m0)
	isChanged := map[int]bool{0: true, 2: true, 9: true, 17: true}

	gotM := PatchRoundedRows(m1, rounded0, res, changed)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := rounded0.At(i, j)
			if isChanged[i] && i != j {
				want = res.Assign(m1.At(i, j))
			}
			if gotM.At(i, j) != want {
				t.Fatalf("PatchRoundedRows(%d,%d) = %g, want %g", i, j, gotM.At(i, j), want)
			}
		}
	}

	var want []core.CostPair
	for _, pr := range pairs0 {
		if !isChanged[int(pr.From)] {
			want = append(want, pr)
		}
	}
	var fresh []core.CostPair
	for _, pr := range m1.SortedPairs() {
		if isChanged[int(pr.From)] {
			fresh = append(fresh, pr)
		}
	}
	want = append(want, fresh...)
	slices.SortStableFunc(want, func(a, b core.CostPair) int {
		switch {
		case a.Cost < b.Cost:
			return -1
		case a.Cost > b.Cost:
			return 1
		}
		return 0
	})
	if got := PatchSortedPairs(m1, pairs0, changed); !slices.Equal(got, want) {
		t.Fatal("PatchSortedPairs diverges from the kept-first merge of a fresh sort")
	}
}

// TestRoundingBitEqualAcrossWorkers builds the same rounded matrix, pair
// list and k-means result from several concurrent callers and requires
// every one bit-equal to a build made alone: the build runs on the calling
// goroutine and reads its input only, so neither the number of callers nor
// GOMAXPROCS can move a bit.
func TestRoundingBitEqualAcrossWorkers(t *testing.T) {
	const n, k = 30, 5
	m := randMatrix(n, 17)
	wantM, wantPairs, wantRes, err := RoundCostMatrixPairsResult(m, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		gotM := make([]*core.CostMatrix, workers)
		gotPairs := make([][]core.CostPair, workers)
		gotRes := make([]*Result, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gotM[w], gotPairs[w], gotRes[w], errs[w] = RoundCostMatrixPairsResult(m, k)
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			if !slices.Equal(gotPairs[w], wantPairs) {
				t.Fatalf("workers=%d caller %d: rounded pair list diverges from a lone build", workers, w)
			}
			if !slices.Equal(gotRes[w].Centers, wantRes.Centers) {
				t.Fatalf("workers=%d caller %d: k-means centers diverge from a lone build", workers, w)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if gotM[w].At(i, j) != wantM.At(i, j) {
						t.Fatalf("workers=%d caller %d: rounded matrix diverges at (%d,%d)", workers, w, i, j)
					}
				}
			}
		}
	}
}
