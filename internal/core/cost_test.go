package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func testMatrix(t *testing.T, n int, seed int64) *CostMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 0.1+rng.Float64())
			}
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("test matrix invalid: %v", err)
	}
	return m
}

func TestCostMatrixBasics(t *testing.T) {
	m := NewCostMatrix(3)
	m.Set(0, 1, 2.5)
	m.Set(1, 0, 1.5) // asymmetric on purpose
	if m.At(0, 1) != 2.5 || m.At(1, 0) != 1.5 {
		t.Fatalf("At: got (%g,%g), want (2.5,1.5)", m.At(0, 1), m.At(1, 0))
	}
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 2.5 {
		t.Fatal("Clone shares backing storage")
	}
}

// Identical compares bit patterns: -0 and +0 differ, and so do sizes.
func TestCostMatrixIdentical(t *testing.T) {
	m := testMatrix(t, 4, 1)
	if !m.Identical(m) || !m.Identical(m.Clone()) {
		t.Fatal("a matrix is not identical to itself or its clone")
	}
	neg := m.Clone()
	neg.Set(2, 2, math.Copysign(0, -1))
	if m.Identical(neg) || neg.Identical(m) {
		t.Fatal("-0 on the diagonal compared identical to +0")
	}
	moved := m.Clone()
	moved.Set(0, 1, math.Nextafter(m.At(0, 1), 2))
	if m.Identical(moved) {
		t.Fatal("a changed value compared identical")
	}
	if m.Identical(testMatrix(t, 3, 1)) || NewCostMatrix(0).Identical(NewCostMatrix(1)) {
		t.Fatal("matrices of different sizes compared identical")
	}
	if !NewCostMatrix(0).Identical(NewCostMatrix(0)) {
		t.Fatal("two empty matrices differ")
	}
}

func TestCostMatrixValidate(t *testing.T) {
	m := NewCostMatrix(2)
	m.Set(0, 0, 1)
	if err := m.Validate(); err == nil {
		t.Fatal("nonzero diagonal accepted")
	}
	m = NewCostMatrix(2)
	m.Set(0, 1, -1)
	if err := m.Validate(); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestOffDiagonalAndDistinct(t *testing.T) {
	m := NewCostMatrix(3)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(0, 2, 2)
	m.Set(2, 0, 3)
	m.Set(1, 2, 2)
	m.Set(2, 1, 1)
	// Row-major, diagonal skipped, duplicates kept.
	od := m.OffDiagonal()
	if want := []float64{1, 2, 1, 2, 3, 1}; !slices.Equal(od, want) {
		t.Fatalf("OffDiagonal = %v, want %v", od, want)
	}
}

// tieMatrix draws costs from only `distinct` values, so a large fraction of
// pairs tie exactly and tie-order bugs cannot hide.
func tieMatrix(t *testing.T, n, distinct int, seed int64) *CostMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, distinct)
	for i := range vals {
		vals[i] = 0.1 + rng.Float64()
	}
	m := NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, vals[rng.Intn(distinct)])
			}
		}
	}
	return m
}

// refSortedPairs is the plainest SortedPairs: materialize every
// off-diagonal pair in row-major order and stable-sort the whole list by
// cost.
func refSortedPairs(m *CostMatrix) []CostPair {
	n := m.Size()
	out := make([]CostPair, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				out = append(out, CostPair{From: int32(i), To: int32(j), Cost: m.At(i, j)})
			}
		}
	}
	slices.SortStableFunc(out, func(a, b CostPair) int {
		switch {
		case a.Cost < b.Cost:
			return -1
		case a.Cost > b.Cost:
			return 1
		}
		return 0
	})
	return out
}

// TestSortedPairsMatchesStableSort pins SortedPairs to a whole-list stable
// sort on tie-heavy matrices, where any tie-order divergence shows, and
// SortPairs to the same order from a shuffled input.
func TestSortedPairsMatchesStableSort(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 40, 101} {
		m := tieMatrix(t, n, 5, int64(n))
		want := refSortedPairs(m)
		got := m.SortedPairs()
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: SortedPairs diverges from the stable-sort reference", n)
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		SortPairs(got)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: SortPairs of a shuffled list diverges from the reference", n)
		}
	}
}

// TestTransposedAndOffDiagonal checks Transposed swaps every direction and
// OffDiagonal lists the off-diagonal cells in row-major order.
func TestTransposedAndOffDiagonal(t *testing.T) {
	for _, n := range []int{0, 1, 2, 9, 64} {
		m := testMatrix(t, n, int64(n))
		tr := m.Transposed()
		var want []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if tr.At(i, j) != m.At(j, i) {
					t.Fatalf("n=%d: Transposed[%d,%d] = %g, want %g", n, i, j, tr.At(i, j), m.At(j, i))
				}
				if i != j {
					want = append(want, m.At(i, j))
				}
			}
		}
		if got := m.OffDiagonal(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: OffDiagonal %v, want %v", n, got, want)
		}
	}
}

func TestDeploymentValidate(t *testing.T) {
	d := Deployment{0, 2, 4}
	if err := d.Validate(5); err != nil {
		t.Fatalf("valid deployment rejected: %v", err)
	}
	if err := d.Validate(4); err == nil {
		t.Fatal("out-of-range instance accepted")
	}
	dup := Deployment{0, 2, 2}
	if err := dup.Validate(5); err == nil {
		t.Fatal("non-injective deployment accepted")
	}
}

func TestIdentityDeployment(t *testing.T) {
	d := Identity(4)
	for i, inst := range d {
		if inst != i {
			t.Fatalf("Identity[%d] = %d", i, inst)
		}
	}
	if err := d.Validate(4); err != nil {
		t.Fatalf("identity invalid: %v", err)
	}
}

func TestLongestLink(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	m := NewCostMatrix(4)
	m.Set(0, 1, 5)
	m.Set(1, 3, 2)
	// Deployment: node0->inst0, node1->inst1, node2->inst3.
	d := Deployment{0, 1, 3}
	if got := LongestLink(d, g, m); got != 5 {
		t.Fatalf("LongestLink = %g, want 5", got)
	}
	// Remap node0 to instance 2: edge (0,1) now costs CL(2,1)=0.
	d2 := Deployment{2, 1, 3}
	if got := LongestLink(d2, g, m); got != 2 {
		t.Fatalf("LongestLink = %g, want 2", got)
	}
}

func TestLongestPathChain(t *testing.T) {
	// Path 0->1->2 under identity deployment: cost = CL(0,1)+CL(1,2).
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	m := NewCostMatrix(3)
	m.Set(0, 1, 1.5)
	m.Set(1, 2, 2.5)
	got, err := LongestPath(Identity(3), g, m)
	if err != nil {
		t.Fatalf("LongestPath: %v", err)
	}
	if got != 4 {
		t.Fatalf("LongestPath = %g, want 4", got)
	}
}

func TestLongestPathBranching(t *testing.T) {
	// Diamond 0->1->3, 0->2->3; the heavier branch dominates.
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 3)
	m := NewCostMatrix(4)
	m.Set(0, 1, 1)
	m.Set(1, 3, 1)
	m.Set(0, 2, 3)
	m.Set(2, 3, 4)
	got, err := LongestPath(Identity(4), g, m)
	if err != nil {
		t.Fatalf("LongestPath: %v", err)
	}
	if got != 7 {
		t.Fatalf("LongestPath = %g, want 7", got)
	}
}

func TestLongestPathRejectsCycle(t *testing.T) {
	g := NewGraph(2)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 0)
	m := NewCostMatrix(2)
	if _, err := LongestPath(Identity(2), g, m); err != ErrCyclic {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
}

// Property: longest path >= longest link on any DAG, since a single edge is a
// path; and both costs are nonnegative.
func TestLongestPathDominatesLink(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g, err := RandomDAG(n, 0.4, rng)
		if err != nil {
			return false
		}
		m := NewCostMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m.Set(i, j, rng.Float64())
				}
			}
		}
		d := Identity(n)
		ll := LongestLink(d, g, m)
		lp, err := LongestPath(d, g, m)
		if err != nil {
			return false
		}
		return lp >= ll && ll >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: deployment cost is invariant under relabeling instances with
// identical cost rows/columns — exercised here as: permuting which unused
// instances exist does not change cost.
func TestCostIgnoresUnusedInstances(t *testing.T) {
	g, err := Mesh2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix(t, 6, 7)
	d := Deployment{0, 2, 3, 5} // instances 1 and 4 unused
	base := LongestLink(d, g, m)
	// Rewriting costs touching unused instances must not change CLL.
	m2 := m.Clone()
	for j := 0; j < 6; j++ {
		if j != 1 {
			m2.Set(1, j, 99)
			m2.Set(j, 1, 99)
		}
		if j != 4 {
			m2.Set(4, j, 99)
			m2.Set(j, 4, 99)
		}
	}
	if got := LongestLink(d, g, m2); got != base {
		t.Fatalf("cost changed when unused-instance rows changed: %g vs %g", got, base)
	}
}

func TestLongestPathWithOrderMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := RandomDAG(15, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := testMatrix(t, 15, 5)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	d := Identity(15)
	want, err := LongestPath(d, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := LongestPathWithOrder(d, g, m, order); got != want {
		t.Fatalf("LongestPathWithOrder = %g, want %g", got, want)
	}
}
