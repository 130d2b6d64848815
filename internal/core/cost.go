package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// CostMatrix is the communication cost function CL : S x S -> R (Definition
// 1) over a set of instances 0..n-1. Costs may be asymmetric and need not
// satisfy the triangle inequality, reflecting true network properties. The
// diagonal is zero by convention and is never consulted by deployment cost
// functions because deployment plans are injective.
type CostMatrix struct {
	n int
	c []float64 // row-major n*n
}

// NewCostMatrix returns an n x n zero cost matrix.
func NewCostMatrix(n int) *CostMatrix {
	if n < 0 {
		panic(fmt.Sprintf("core: negative cost matrix size %d", n))
	}
	return &CostMatrix{n: n, c: make([]float64, n*n)}
}

// Size reports the number of instances covered by the matrix.
func (m *CostMatrix) Size() int { return m.n }

// At returns CL(i, j). It panics if either index is out of range, matching
// slice semantics; the hot solver loops index the backing slice directly.
func (m *CostMatrix) At(i, j int) float64 { return m.c[i*m.n+j] }

// Set assigns CL(i, j) = v.
func (m *CostMatrix) Set(i, j int, v float64) { m.c[i*m.n+j] = v }

// Clone returns a deep copy of the matrix.
func (m *CostMatrix) Clone() *CostMatrix {
	out := NewCostMatrix(m.n)
	copy(out.c, m.c)
	return out
}

// Identical reports whether o has m's size and, entry by entry, m's bit
// patterns: a cost is its bit pattern, as Fingerprint hashes it, so -0 and
// +0 differ. Matrices that share storage are identical without a scan.
func (m *CostMatrix) Identical(o *CostMatrix) bool {
	if m.n != o.n {
		return false
	}
	if len(m.c) == 0 || &m.c[0] == &o.c[0] {
		return true
	}
	for k, v := range m.c {
		if math.Float64bits(v) != math.Float64bits(o.c[k]) {
			return false
		}
	}
	return true
}

// Row returns the i-th row as a slice view. Callers must not modify it.
func (m *CostMatrix) Row(i int) []float64 { return m.c[i*m.n : (i+1)*m.n] }

// Transposed returns the matrix with every cost direction swapped:
// Transposed().At(i, j) == At(j, i). Path costs on a transposed graph under
// the transposed matrix equal path costs on the original. The transpose is
// built in one pass over the flat backing — each source row is read
// contiguously and scattered down one destination column — rather than by
// n^2 At/Set calls.
func (m *CostMatrix) Transposed() *CostMatrix {
	n := m.n
	t := NewCostMatrix(n)
	for i := 0; i < n; i++ {
		row := m.c[i*n : (i+1)*n]
		col := t.c[i:]
		for j, v := range row {
			col[j*n] = v
		}
	}
	return t
}

// OffDiagonal returns all off-diagonal entries in row-major order. This is
// the "latency vector" used when comparing measurement schemes (Sect. 6.2.2).
func (m *CostMatrix) OffDiagonal() []float64 {
	n := m.n
	if n < 2 {
		return nil
	}
	out := make([]float64, n*(n-1))
	for i := 0; i < n; i++ {
		dst := out[i*(n-1) : (i+1)*(n-1)]
		row := m.c[i*n : (i+1)*n]
		copy(dst[:i], row[:i])
		copy(dst[i:], row[i+1:])
	}
	return out
}

// CostPair is one ordered instance pair (From, To) tagged with its link cost.
// Slices of CostPair sorted ascending by cost are the float64 pair-list view
// of a rounded cost set (cluster.Rounded.CostPairs), which no solver reads:
// CP reads the set's class-grouped pair indices instead.
type CostPair struct {
	From, To int32
	Cost     float64
}

// SortedPairs returns every off-diagonal pair of the matrix sorted ascending
// by cost. Ties keep row-major order, so the result is deterministic.
func (m *CostMatrix) SortedPairs() []CostPair {
	n := m.n
	if n < 2 {
		return nil
	}
	a := make([]CostPair, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j, v := range m.c[i*n : (i+1)*n] {
			if i != j {
				a = append(a, CostPair{From: int32(i), To: int32(j), Cost: v})
			}
		}
	}
	SortPairs(a)
	return a
}

// SortPairs sorts pairs in place ascending by (Cost, From, To). On a list of
// distinct (From, To) pairs that is a total order, so the result does not
// depend on the input order: ties come out in row-major order.
func SortPairs(pairs []CostPair) {
	slices.SortFunc(pairs, func(a, b CostPair) int {
		switch {
		case a.Cost < b.Cost:
			return -1
		case a.Cost > b.Cost:
			return 1
		case a.From != b.From:
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})
}

// Validate checks that the matrix has a zero diagonal and no negative or
// non-finite costs.
func (m *CostMatrix) Validate() error {
	if len(m.c) != m.n*m.n {
		return fmt.Errorf("core: cost matrix backing size %d != %d^2", len(m.c), m.n)
	}
	for i := 0; i < m.n; i++ {
		if m.At(i, i) != 0 {
			return fmt.Errorf("core: nonzero diagonal at %d", i)
		}
		for j := 0; j < m.n; j++ {
			v := m.At(i, j)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: invalid cost %g at (%d,%d)", v, i, j)
			}
		}
	}
	return nil
}

// Deployment is a deployment plan D : N -> S (Definition 2): entry i holds
// the instance assigned to application node i. The plan must be injective —
// at most one node per instance — and instances not referenced simply run
// nothing (they are the over-allocated instances ClouDiA terminates).
type Deployment []int

// Identity returns the deployment mapping node i to instance i, the "default
// deployment" of the EC2 allocation ordering the paper compares against.
func Identity(n int) Deployment {
	d := make(Deployment, n)
	for i := range d {
		d[i] = i
	}
	return d
}

// Clone returns a copy of the deployment.
func (d Deployment) Clone() Deployment { return append(Deployment(nil), d...) }

// Validate checks that d maps each of its nodes to a distinct instance in
// [0, numInstances).
func (d Deployment) Validate(numInstances int) error {
	seen := make(map[int]int, len(d))
	for node, inst := range d {
		if inst < 0 || inst >= numInstances {
			return fmt.Errorf("core: node %d mapped to out-of-range instance %d (have %d)", node, inst, numInstances)
		}
		if prev, dup := seen[inst]; dup {
			return fmt.Errorf("core: nodes %d and %d both mapped to instance %d", prev, node, inst)
		}
		seen[inst] = node
	}
	return nil
}

// LongestLink computes the Class 1 deployment cost CLL(D, G, CL): the maximum
// link cost over communication-graph edges under deployment d (Sect. 3.3),
// scaled by edge weights when the graph is weighted. It panics if d does not
// cover all graph nodes; callers validate first.
func LongestLink(d Deployment, g *Graph, m *CostMatrix) float64 {
	worst := 0.0
	n := m.n
	if !g.Weighted() {
		for _, e := range g.Edges() {
			c := m.c[d[e.From]*n+d[e.To]]
			if c > worst {
				worst = c
			}
		}
		return worst
	}
	for k, e := range g.Edges() {
		c := g.EdgeWeight(k) * m.c[d[e.From]*n+d[e.To]]
		if c > worst {
			worst = c
		}
	}
	return worst
}

// LongestPath computes the Class 2 deployment cost CLP(D, G, CL): the maximum
// over directed paths of the sum of link costs along the path. The graph
// must be acyclic; ErrCyclic is returned otherwise.
func LongestPath(d Deployment, g *Graph, m *CostMatrix) (float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	return longestPathInOrder(d, g, m, order), nil
}

// longestPathInOrder is the DP core of LongestPath, reusable by solvers that
// already hold a topological order. dist[v] = longest path cost ending at v.
func longestPathInOrder(d Deployment, g *Graph, m *CostMatrix, order []NodeID) float64 {
	n := m.n
	dist := make([]float64, g.NumNodes())
	best := 0.0
	weighted := g.Weighted()
	a := g.adjacency() // read once, not through Out's per-call check
	for _, v := range order {
		dv := dist[v]
		if dv > best {
			best = dv
		}
		for j := a.outOff[v]; j < a.outOff[v+1]; j++ {
			w := a.outNbr[j]
			c := dv + m.c[d[v]*n+d[w]]
			if weighted {
				c = dv + g.w[a.outEid[j]]*m.c[d[v]*n+d[w]]
			}
			if c > dist[w] {
				dist[w] = c
			}
		}
	}
	return best
}

// LongestPathWithOrder computes the Class 2 deployment cost given a
// precomputed topological order (as returned by Graph.TopoOrder). Solver
// inner loops use this to avoid recomputing the order per candidate.
func LongestPathWithOrder(d Deployment, g *Graph, m *CostMatrix, order []NodeID) float64 {
	return longestPathInOrder(d, g, m, order)
}
