package solver

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/par"
)

// Prep is a problem's shared preprocessing cache: every derived artifact the
// solvers consume — cost-clustered matrices and their sorted pair lists,
// transposed graph and matrices, degree orders, per-instance cheapest-link
// rows, off-diagonal extractions, bootstrap incumbents — computed at most
// once per Problem and shared by every portfolio member and repeated solver
// call. Before Prep, each portfolio member recomputed its own copies per
// Solve: CP and MIP each ran a full k-means over the m^2 link costs, MIP
// rebuilt the transposed graph and matrix, G1 re-sorted every cost row, and
// the bootstrap deployments were drawn from identical seeds multiple times.
//
// Prep is safe for concurrent use. Distinct artifacts (and distinct
// cluster-K values) are guarded by their own sync.Once, so racing portfolio
// members computing different artifacts never serialize behind one lock,
// while members demanding the same artifact block until the first
// computation lands and then share it.
//
// Everything returned by Prep is shared and immutable: callers must not
// modify returned matrices, graphs, slices, or pair lists. The only
// exception is Bootstrap, which returns a fresh copy of the memoized
// deployment because solvers mutate their incumbent in place.
//
// The done flags let the export path (prep_share.go) observe, without
// blocking on a computation in flight, which artifacts have been built.
type Prep struct {
	p *Problem

	mu      sync.Mutex
	rounded map[int]*prepRounded

	tGraphOnce sync.Once
	tGraphDone atomic.Bool
	tGraph     *core.Graph
	tOrder     []core.NodeID
	tOrderErr  error

	degOnce  sync.Once
	degOrder []core.NodeID

	rowsOnce sync.Once
	rowsDone atomic.Bool
	rows     [][]int32

	offOnce sync.Once
	offDiag []float64

	bootMu sync.Mutex
	boots  map[bootKey]*prepBoot

	warmMu   sync.Mutex
	warm     core.Deployment
	warmCost float64
}

// prepRounded memoizes one cluster-K's rounded matrix, pair list, and
// (lazily) the transpose of the rounded matrix.
type prepRounded struct {
	once  sync.Once
	done  atomic.Bool
	m     *core.CostMatrix
	pairs []core.CostPair
	err   error

	tOnce sync.Once
	t     *core.CostMatrix
}

type bootKey struct {
	samples int
	seed    int64
}

type prepBoot struct {
	once sync.Once
	d    core.Deployment
	cost float64
}

func newPrep(p *Problem) *Prep {
	return &Prep{
		p:       p,
		rounded: make(map[int]*prepRounded),
		boots:   make(map[bootKey]*prepBoot),
	}
}

// entry returns the memo cell for cluster count k; every k <= 0 aliases the
// unclustered cell 0.
func (pp *Prep) entry(k int) *prepRounded {
	if k < 0 {
		k = 0
	}
	pp.mu.Lock()
	e, ok := pp.rounded[k]
	if !ok {
		e = &prepRounded{}
		pp.rounded[k] = e
	}
	pp.mu.Unlock()
	return e
}

// Rounded returns the problem's cost matrix rounded to at most k clusters
// (Sect. 6.3.1) together with the instance-pair list sorted ascending by
// rounded cost, memoized per k. k <= 0 disables clustering: the original
// matrix is served with its sorted pairs. The matrix and pair list are
// shared — callers must not modify them.
func (pp *Prep) Rounded(k int) (*core.CostMatrix, []core.CostPair, error) {
	e := pp.entry(k)
	e.once.Do(func() {
		e.m, e.pairs, e.err = cluster.RoundCostMatrixPairs(pp.p.Costs, k)
		e.done.Store(true)
	})
	return e.m, e.pairs, e.err
}

// RoundedMatrix is Rounded without the pair list: for k <= 0 it serves the
// original matrix directly, skipping the m^2 log m pair sort consumers like
// the branch-and-bound solver never need. Shared; callers must not modify
// the result.
func (pp *Prep) RoundedMatrix(k int) (*core.CostMatrix, error) {
	if k <= 0 {
		return pp.p.Costs, nil
	}
	m, _, err := pp.Rounded(k)
	return m, err
}

// TransposedCosts returns the transpose of RoundedMatrix(k) — the matrix
// under which path costs on the transposed graph equal path costs on the
// original — memoized per k. Shared; callers must not modify it.
func (pp *Prep) TransposedCosts(k int) (*core.CostMatrix, error) {
	m, err := pp.RoundedMatrix(k)
	if err != nil {
		return nil, err
	}
	e := pp.entry(k)
	e.tOnce.Do(func() { e.t = m.Transposed() })
	return e.t, nil
}

// TransposedGraph returns the communication graph with every edge reversed
// (weights carried along), memoized. Shared; callers must not modify it.
func (pp *Prep) TransposedGraph() *core.Graph {
	pp.buildTransposed()
	return pp.tGraph
}

// TransposedTopoOrder returns a topological order of the transposed graph,
// memoized alongside it. Shared; callers must not modify it.
func (pp *Prep) TransposedTopoOrder() ([]core.NodeID, error) {
	pp.buildTransposed()
	return pp.tOrder, pp.tOrderErr
}

func (pp *Prep) buildTransposed() {
	pp.tGraphOnce.Do(func() {
		pp.tGraph = pp.p.Graph.Transposed()
		pp.tOrder, pp.tOrderErr = pp.tGraph.TopoOrder()
		pp.tGraphDone.Store(true)
	})
}

// DegreeOrder returns the application nodes sorted by descending total
// degree (stable, so ties keep node order) — the branching order of the
// branch-and-bound LLNDP search. Shared; callers must not modify it.
func (pp *Prep) DegreeOrder() []core.NodeID {
	pp.degOnce.Do(func() {
		g := pp.p.Graph
		order := make([]core.NodeID, g.NumNodes())
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return g.Degree(order[a]) > g.Degree(order[b])
		})
		pp.degOrder = order
	})
	return pp.degOrder
}

// cheapestRow builds instance u's candidate row: the other instances sorted
// ascending by (cost from u, index).
func cheapestRow(m *core.CostMatrix, u int, row []int32) []int32 {
	n := m.Size()
	for v := 0; v < n; v++ {
		if v != u {
			row = append(row, int32(v))
		}
	}
	cu := m.Row(u)
	sort.Slice(row, func(i, j int) bool {
		ci, cj := cu[row[i]], cu[row[j]]
		if ci != cj {
			return ci < cj
		}
		return row[i] < row[j]
	})
	return row
}

// CheapestRows returns, for every instance u, the other instances sorted
// ascending by (cost from u, index) — the candidate rows consumed by the G1
// greedy's cheapest-free cursors. One flat backing array serves all rows:
// row u owns the fixed stride [u*(n-1), (u+1)*(n-1)), so rows fill and sort
// in parallel while producing exactly the sequential build's bytes. Shared;
// callers must not modify the rows.
func (pp *Prep) CheapestRows() [][]int32 {
	pp.rowsOnce.Do(func() {
		m := pp.p.Costs
		n := m.Size()
		rows := make([][]int32, n)
		per := n - 1
		flat := make([]int32, n*per)
		par.For(n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				rows[u] = cheapestRow(m, u, flat[u*per:u*per:(u+1)*per])
			}
		})
		pp.rows = rows
		pp.rowsDone.Store(true)
	})
	return pp.rows
}

// OffDiagonal returns the problem's off-diagonal cost values in row-major
// order (the "latency vector" of Sect. 6.2.2), memoized. Shared; callers
// must not modify it.
func (pp *Prep) OffDiagonal() []float64 {
	pp.offOnce.Do(func() {
		pp.offDiag = pp.p.Costs.OffDiagonal()
	})
	return pp.offDiag
}

// WarmStart installs a warm incumbent for this problem epoch: every later
// Bootstrap call returns the better of its seeded random draw and d
// evaluated under this problem's matrix. Streaming advisors use this to
// carry the previous epoch's incumbent into the next round's portfolio, so
// each round refines rather than restarts (and the warm incumbent also
// becomes the shared starting point of the local-search members). The
// deployment is copied; WarmStart must be called before the solvers that
// should see it first consult Bootstrap, because completed bootstrap memo
// entries are not revisited.
func (pp *Prep) WarmStart(d core.Deployment) error {
	if len(d) != pp.p.NumNodes() {
		return fmt.Errorf("solver: warm start covers %d nodes, problem has %d", len(d), pp.p.NumNodes())
	}
	if err := d.Validate(pp.p.NumInstances()); err != nil {
		return err
	}
	cost := pp.p.Cost(d)
	pp.warmMu.Lock()
	if pp.warm == nil || cost < pp.warmCost {
		pp.warm, pp.warmCost = d.Clone(), cost
	}
	pp.warmMu.Unlock()
	return nil
}

// Bootstrap returns the best of `samples` seeded random deployments and its
// cost (Sect. 6.3.1's initial-solution strategy), memoized per
// (samples, seed) so portfolio members sharing a seed — CP, MIP, and the
// first SA restart all bootstrap identically — draw the incumbent once. Any
// installed WarmStart deployment competes with the random draw. The
// deployment is a fresh copy: callers may mutate it freely.
func (pp *Prep) Bootstrap(samples int, seed int64) (core.Deployment, float64) {
	if samples < 1 {
		samples = 1
	}
	key := bootKey{samples: samples, seed: seed}
	pp.bootMu.Lock()
	b, ok := pp.boots[key]
	if !ok {
		b = &prepBoot{}
		pp.boots[key] = b
	}
	pp.bootMu.Unlock()
	b.once.Do(func() {
		rng := rand.New(rand.NewSource(seed))
		b.d, b.cost = Bootstrap(pp.p, samples, rng)
		pp.warmMu.Lock()
		if pp.warm != nil && pp.warmCost < b.cost {
			b.d, b.cost = pp.warm.Clone(), pp.warmCost
		}
		pp.warmMu.Unlock()
	})
	return b.d.Clone(), b.cost
}
