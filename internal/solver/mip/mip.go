// Package mip implements a hand-rolled branch-and-bound stand-in for the
// paper's mixed-integer programming formulations (Sects. 4.1 and 4.4); the
// Go ecosystem has no CPLEX equivalent, so the MIP encodings are solved by
// systematic search over the assignment variables with objective-based
// pruning. The stand-in is complete — given enough budget it proves
// optimality, as the paper's MIP does at small scale (Sect. 6.5.3) — but it
// inherits the formulations' weaknesses: the LLNDP encoding's bound is weak
// (the relaxed constraint (3) only bites once both endpoints of an edge are
// fixed), so at 100 instances CP dominates it, reproducing Fig. 7.
//
// For LPNDP, branching follows a topological order so each node's longest
// incoming path is final at assignment time, and the bound adds an
// optimistic completion: the cheapest link cost times the remaining path
// depth. Cost clustering shrinks the number of distinct link costs but not
// the number of distinct path sums, which is why clustering does not help
// LPNDP (Fig. 9).
package mip

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// Solver is the branch-and-bound solver for both objectives.
type Solver struct {
	// ClusterK rounds link costs to at most K clusters before searching
	// (<= 0 disables). Reported costs always use the original matrix.
	ClusterK int
	// Seed drives bootstrap sampling.
	Seed int64
	// LPNodeCost is the budget charge per branch-and-bound node, modelling
	// the LP re-solve a real MIP solver performs at every node. Both
	// encodings have |E|*|S|^2 big-M constraints, but their usefulness
	// differs sharply: on LLNDP the relaxation is vacuous (Sect. 6.3.2), so
	// a real MIP solver pays the giant-LP price per node and gets nothing —
	// at 100 instances node throughput collapses, the root cause of
	// Fig. 7's CP >> MIP result. On LPNDP the t_i path variables make the
	// relaxation informative and the paper's CPLEX performs well (Figs. 9,
	// 15). Zero therefore derives the charge as 2*|E|*|S|^2 for LongestLink
	// (roughly one pass over the constraint matrix per LP re-solve) and
	// |E|*|S|^2/2000 for LongestPath (warm-started, informative LP); both
	// are floored at 1. Negative forces a charge of 1 (pure combinatorial
	// search, no LP emulation).
	LPNodeCost int
}

// New returns a MIP solver with the given cost-cluster count.
func New(clusterK int, seed int64) *Solver { return &Solver{ClusterK: clusterK, Seed: seed} }

// Name implements solver.Solver.
func (s *Solver) Name() string {
	if s.ClusterK > 0 {
		return fmt.Sprintf("MIP(k=%d)", s.ClusterK)
	}
	return "MIP"
}

// Solve implements solver.Solver.
func (s *Solver) Solve(p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	return s.SolveContext(context.Background(), p, budget)
}

// SolveContext implements solver.Solver: the search additionally
// stops once ctx is cancelled, reporting the incumbent.
func (s *Solver) SolveContext(ctx context.Context, p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	clock := solver.NewClockCtx(ctx, budget)

	// The rounded set and the bootstrap incumbent come from the problem's
	// shared preprocessing cache; the set's float64 matrix, the branching
	// order and the transposed longest-path search are this solve's own.
	prep := p.Prep()
	search := p.Costs
	if s.ClusterK > 0 {
		set, err := prep.RoundedSet(s.ClusterK)
		if err != nil {
			return nil, err
		}
		search = set.Matrix()
	}

	// The paper seeds the incumbent with the best of 10 random deployments.
	incumbent, _ := prep.Bootstrap(10, s.Seed)

	res := &solver.Result{Deployment: incumbent, Cost: p.Cost(incumbent)}
	res.Trace = append(res.Trace, solver.TracePoint{Elapsed: clock.Elapsed(), Cost: res.Cost})

	lpCost := s.LPNodeCost
	switch {
	case lpCost < 0:
		lpCost = 1
	case lpCost == 0:
		ns := p.NumInstances()
		if p.Objective == solver.LongestLink {
			lpCost = 2 * p.Graph.NumEdges() * ns * ns
		} else {
			lpCost = p.Graph.NumEdges() * ns * ns / 2000
		}
		if lpCost < 1 {
			lpCost = 1
		}
	}
	b := &bnb{
		p:      p,
		search: search,
		clock:  clock,
		res:    res,
		used:   make([]bool, p.NumInstances()),
		lpCost: lpCost,
	}
	switch p.Objective {
	case solver.LongestLink:
		b.searchCost = func(d core.Deployment) float64 { return core.LongestLink(d, p.Graph, search) }
		b.bestBound = b.searchCost(incumbent)
		b.order = degreeOrder(p.Graph)
		b.assigned = unassignedSlice(p.NumNodes())
		b.branchLL(0, 0)
	case solver.LongestPath:
		b.searchCost = func(d core.Deployment) float64 {
			return core.LongestPathWithOrder(d, p.Graph, search, p.TopoOrder())
		}
		b.bestBound = b.searchCost(incumbent)
		b.assigned = unassignedSlice(p.NumNodes())
		// Branching direction: the DP assigns nodes in topological order, so
		// nodes with no (assigned) predecessors carry no information when
		// branched early. Aggregation trees point child -> parent: all
		// leaves are sources, and forward order would fix every leaf before
		// any informative decision. When the graph has more sources than
		// sinks, solve the transposed problem instead — same optimum, same
		// deployments, but the constrained nodes branch first.
		lpGraph, lpSearch, lpOrder := p.Graph, search, p.TopoOrder()
		if countSources(p.Graph) > countSinks(p.Graph) {
			var err error
			if lpGraph, lpSearch, lpOrder, err = transposed(p.Graph, search); err != nil {
				return nil, err
			}
		}
		b.lpGraph, b.lpSearch, b.order = lpGraph, lpSearch, lpOrder
		b.prepareLP()
		b.branchLP(0, make([]float64, p.NumNodes()))
	}
	// Clustering rounds the objective, so an exhausted search proves
	// optimality only for the rounded costs — never claim it for the true
	// problem (CP applies the same guard). A stray claim would also make
	// the portfolio runner cancel its other members on a false proof.
	res.Optimal = !b.limitHit && s.ClusterK <= 0
	res.Nodes = clock.Nodes()
	res.Elapsed = clock.Elapsed()
	return res, nil
}

// bnb carries the branch-and-bound state.
type bnb struct {
	p          *solver.Problem
	search     *core.CostMatrix
	clock      *solver.Clock
	res        *solver.Result
	order      []core.NodeID
	assigned   core.Deployment
	used       []bool
	bestBound  float64 // incumbent cost under the search matrix
	limitHit   bool
	searchCost func(core.Deployment) float64

	// LPNDP search structures: possibly the transposed problem (see Solve).
	lpGraph  *core.Graph
	lpSearch *core.CostMatrix
	remDepth []int   // longest remaining path (edges) from each node
	minCost  float64 // cheapest off-diagonal link cost

	// scratch holds per-depth candidate buffers for value ordering.
	scratch [][]scored
	// lpCost is the budget charge per node (see Solver.LPNodeCost).
	lpCost int
}

// tickNode charges one branch-and-bound node against the budget, weighted by
// the emulated LP effort, and reports whether the budget is exhausted.
func (b *bnb) tickNode() bool {
	for i := 0; i < b.lpCost; i++ {
		if b.clock.Tick() {
			return true
		}
	}
	return false
}

// degreeOrder returns g's nodes sorted by descending total degree (stable,
// so ties keep node order): the branching order of the LLNDP search.
func degreeOrder(g *core.Graph) []core.NodeID {
	order := make([]core.NodeID, g.NumNodes())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Degree(order[a]) > g.Degree(order[b])
	})
	return order
}

// transposed returns the LPNDP search over g with every edge reversed: the
// transposed graph (weights carried along), the transpose of search, under
// which its path costs equal the original's, and its topological order.
func transposed(g *core.Graph, search *core.CostMatrix) (*core.Graph, *core.CostMatrix, []core.NodeID, error) {
	tg := g.Transposed()
	order, err := tg.TopoOrder()
	if err != nil {
		return nil, nil, nil, err
	}
	return tg, search.Transposed(), order, nil
}

// countSources reports nodes with no incoming edges.
func countSources(g *core.Graph) int {
	n := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(v) == 0 {
			n++
		}
	}
	return n
}

// countSinks reports nodes with no outgoing edges.
func countSinks(g *core.Graph) int {
	n := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.OutDegree(v) == 0 {
			n++
		}
	}
	return n
}

func unassignedSlice(n int) core.Deployment {
	d := make(core.Deployment, n)
	for i := range d {
		d[i] = -1
	}
	return d
}

// accept records a complete assignment if it improves the incumbent.
func (b *bnb) accept() {
	cost := b.searchCost(b.assigned)
	if cost < b.bestBound {
		b.bestBound = cost
		b.res.Deployment = b.assigned.Clone()
		b.res.Cost = b.p.Cost(b.res.Deployment)
		b.res.Trace = append(b.res.Trace, solver.TracePoint{
			Elapsed: b.clock.Elapsed(), Nodes: b.clock.Nodes(), Cost: b.res.Cost,
		})
	}
}

// branchLL assigns nodes in degree order; partial is the largest link cost
// among edges with both endpoints assigned — the tightest bound the MIP
// encoding's relaxation provides.
func (b *bnb) branchLL(depth int, partial float64) {
	if b.limitHit {
		return
	}
	if depth == len(b.order) {
		b.accept()
		return
	}
	if b.tickNode() {
		b.limitHit = true
		return
	}
	node := b.order[depth]
	g := b.p.Graph
	m := b.search
	// No value ordering here, deliberately: the LLNDP encoding's LP
	// relaxation is weak — constraint (3) only binds once both endpoints of
	// an edge are integral — so a MIP solver branching on this formulation
	// gets no cost guidance (Sect. 6.3.2). Emulating that, instances are
	// tried in index order; only the incumbent bound prunes. This is what
	// makes CP dominate MIP on LLNDP at scale (Fig. 7).
	for inst := 0; inst < b.p.NumInstances(); inst++ {
		if b.used[inst] {
			continue
		}
		// New partial objective: fold in (weighted) edges to assigned
		// neighbours.
		cand := partial
		for _, w := range g.Out(node) {
			if jw := b.assigned[w]; jw >= 0 {
				if c := g.Weight(node, w) * m.At(inst, jw); c > cand {
					cand = c
				}
			}
		}
		for _, w := range g.In(node) {
			if jw := b.assigned[w]; jw >= 0 {
				if c := g.Weight(w, node) * m.At(jw, inst); c > cand {
					cand = c
				}
			}
		}
		if cand >= b.bestBound {
			continue
		}
		b.assigned[node] = inst
		b.used[inst] = true
		b.branchLL(depth+1, cand)
		b.assigned[node] = -1
		b.used[inst] = false
		if b.limitHit {
			return
		}
	}
}

// scored is a candidate instance with its branching score.
type scored struct {
	inst int
	cost float64
}

// candidates returns the per-depth scratch slice, emptied.
func (b *bnb) candidates(depth int) []scored {
	for len(b.scratch) <= depth {
		b.scratch = append(b.scratch, make([]scored, 0, b.p.NumInstances()))
	}
	return b.scratch[depth][:0]
}

// prepareLP computes the remaining-depth table and cheapest link cost used
// by the LPNDP lower bound.
func (b *bnb) prepareLP() {
	g := b.lpGraph
	order := b.order
	b.remDepth = make([]int, g.NumNodes())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, w := range g.Out(v) {
			if d := b.remDepth[w] + 1; d > b.remDepth[v] {
				b.remDepth[v] = d
			}
		}
	}
	// The cheapest off-diagonal link.
	b.minCost = math.Inf(1)
	for i := 0; i < b.lpSearch.Size(); i++ {
		for j := 0; j < b.lpSearch.Size(); j++ {
			if i != j && b.lpSearch.At(i, j) < b.minCost {
				b.minCost = b.lpSearch.At(i, j)
			}
		}
	}
	if math.IsInf(b.minCost, 1) {
		b.minCost = 0
	}
	// With weighted edges, the optimistic completion must use the smallest
	// weight so the bound stays a true lower bound.
	if b.lpGraph.Weighted() {
		minW := math.Inf(1)
		for _, w := range b.lpGraph.DistinctWeights() {
			if w < minW {
				minW = w
			}
		}
		if !math.IsInf(minW, 1) {
			b.minCost *= minW
		}
	}
}

// branchLP assigns nodes in topological order; dist[v] is the longest path
// cost ending at v over assigned nodes (final once v is assigned, because
// all predecessors precede v in the order). The lower bound for a partial
// assignment is max over assigned v of dist[v] + remDepth[v]*minCost.
func (b *bnb) branchLP(depth int, dist []float64) {
	if b.limitHit {
		return
	}
	if depth == len(b.order) {
		b.accept()
		return
	}
	if b.tickNode() {
		b.limitHit = true
		return
	}
	node := b.order[depth]
	g := b.lpGraph
	m := b.lpSearch
	// Value ordering: cheapest arrival cost first (see branchLL).
	cands := b.candidates(depth)
	for inst := 0; inst < b.p.NumInstances(); inst++ {
		if b.used[inst] {
			continue
		}
		// dist[node] from assigned predecessors (all predecessors are
		// assigned, thanks to topological branching order).
		dn := 0.0
		for _, w := range g.In(node) {
			c := dist[w] + g.Weight(w, node)*m.At(b.assigned[w], inst)
			if c > dn {
				dn = c
			}
		}
		cands = append(cands, scored{inst: inst, cost: dn})
	}
	sort.Slice(cands, func(x, y int) bool { return cands[x].cost < cands[y].cost })
	slack := float64(b.remDepth[node]) * b.minCost
	for _, c := range cands {
		if c.cost+slack >= b.bestBound {
			break // sorted: all remaining candidates are pruned too
		}
		b.assigned[node] = c.inst
		b.used[c.inst] = true
		old := dist[node]
		dist[node] = c.cost
		b.branchLP(depth+1, dist)
		dist[node] = old
		b.assigned[node] = -1
		b.used[c.inst] = false
		if b.limitHit {
			return
		}
	}
}
