// Package greedy implements the paper's two lightweight greedy algorithms
// for the Longest Link Node Deployment Problem (Sect. 4.3.2): G1 (Algorithm
// 1), which grows a partial deployment by repeatedly taking the cheapest
// available link, and G2 (Algorithm 2), which additionally charges each
// candidate for the implicit links it would add between the new instance and
// the already-deployed neighbours. For LPNDP, the greedy solution to LLNDP
// over the same graph serves as a heuristic (Sect. 4.5.2).
//
// Neither variant rescans all |S|^2 instance pairs per step. G1 keeps one
// sorted cheapest-free-instance cursor per mapped instance (the sorted rows
// come from the problem's shared Prep cache): instances only ever become
// used during a run, so each cursor advances monotonically and a step costs
// O(|S|) plus amortized cursor movement instead of O(|S|^2). G2 maintains
// each (frontier node, free instance) candidate's score — the worst link it
// would create towards mapped neighbours — incrementally: scores only grow
// as neighbours get mapped, so every assignment folds its links into the
// score matrix in O(deg * |S|) and a step just scans frontier rows, instead
// of rescoring every candidate against every mapped neighbour per step.
package greedy

import (
	"context"
	"math"

	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// Variant selects between Algorithm 1 and Algorithm 2.
type Variant int

// The two greedy variants.
const (
	G1 Variant = 1
	G2 Variant = 2
)

// Solver is a deterministic greedy solver.
type Solver struct {
	Variant Variant
}

// New returns a greedy solver for the given variant.
func New(v Variant) *Solver { return &Solver{Variant: v} }

// Name implements solver.Solver.
func (s *Solver) Name() string {
	if s.Variant == G1 {
		return "G1"
	}
	return "G2"
}

// SolveContext implements solver.Solver. Greedy construction is a single
// pass that does not read ctx: it runs to completion under budget, exactly
// as Solve.
func (s *Solver) SolveContext(_ context.Context, p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	return s.Solve(p, budget)
}

// Solve implements solver.Solver. Greedy construction is single-pass and
// always returns a complete deployment, but it is budget-aware: when a
// wall-clock budget is nearly spent — checked on the same exponential
// warm-up cadence as solver.Clock, so the common unconstrained run pays a
// handful of clock reads — the remaining nodes are placed by a cheap O(|S|)
// completion per node instead of full greedy steps. Node budgets are left
// alone deliberately: they exist to make runs machine-independent, and the
// fallback is inherently wall-clock-dependent.
func (s *Solver) Solve(p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	clock := solver.NewClock(budget)
	st := newState(p)
	st.seedFirstEdge()
	// Fall back once 7/8 of the time budget is gone: the remaining eighth
	// comfortably covers the cheap completion, which costs less than one
	// greedy step per node.
	cutoff := budget.Time - budget.Time/8
	var steps, nextCheck int64 = 0, 1
	for st.mapped < p.NumNodes() {
		clock.Tick()
		if budget.Time > 0 {
			if steps++; steps >= nextCheck {
				if nextCheck <= 512 {
					nextCheck <<= 1
				} else {
					nextCheck = steps + 1024
				}
				if clock.Elapsed() >= cutoff {
					st.completeCheap()
					break
				}
			}
		}
		var ok bool
		if s.Variant == G1 {
			ok = st.stepG1()
		} else {
			ok = st.stepG2()
		}
		if !ok {
			// No mapped node has unmatched neighbours: remaining nodes are
			// in other connected components (or isolated). Seed the next
			// component and continue.
			st.seedComponent()
		}
	}
	d := core.Deployment(st.deploy)
	cost := p.Cost(d)
	res := &solver.Result{
		Deployment: d,
		Cost:       cost,
		Nodes:      clock.Nodes(),
		Elapsed:    clock.Elapsed(),
	}
	res.Trace = []solver.TracePoint{{Elapsed: res.Elapsed, Nodes: res.Nodes, Cost: cost}}
	return res, nil
}

// state is the partial deployment shared by both variants.
type state struct {
	p      *solver.Problem
	deploy []int // node -> instance, -1 if unmapped
	inv    []int // instance -> node, -1 if unused
	mapped int

	// G1 candidate frontier: rows[u] lists the instances != u sorted by
	// (cost from u, index), and cursor[u] points at the cheapest entry not
	// yet ruled out. Instances only become used during a run, so cursors
	// move forward only.
	rows   [][]int32
	cursor []int

	// G2 candidate scores: scores[w*|S|+v] is the worst link created by
	// placing unmapped node w on instance v, maximized over w's mapped
	// neighbours. A score only grows as neighbours get mapped, so each
	// assignment folds its links in incrementally (O(deg*|S|)) instead of
	// every step rescoring all frontier-instance pairs from scratch
	// (O(frontier*|S|*deg) per step — the difference between seconds and
	// tenths at 500 nodes on 1000 instances).
	scores []float64
}

func newState(p *solver.Problem) *state {
	st := &state{
		p:      p,
		deploy: make([]int, p.NumNodes()),
		inv:    make([]int, p.NumInstances()),
	}
	for i := range st.deploy {
		st.deploy[i] = -1
	}
	for i := range st.inv {
		st.inv[i] = -1
	}
	return st
}

// ensureRows builds the per-instance sorted candidate rows for G1 on first
// use, once per solve: sorting |S| rows of |S|-1 candidates is the dominant
// cost of a G1 run. The cursors track which instances this construction
// has used.
func (st *state) ensureRows() {
	if st.rows != nil {
		return
	}
	st.rows = st.p.Prep().CheapestRows()
	st.cursor = make([]int, st.p.Costs.Size())
}

func (st *state) assign(node, inst int) {
	st.deploy[node] = inst
	st.inv[inst] = node
	st.mapped++
	if st.scores != nil {
		st.foldScores(node)
	}
}

// foldScores folds the links created by node's fresh assignment into the
// score rows of its still-unmapped neighbours. Called for every assignment
// once G2's score matrix exists.
func (st *state) foldScores(node int) {
	g := st.p.Graph
	m := st.p.Costs
	ns := m.Size()
	edges := g.Edges()
	x := st.deploy[node]
	for _, k := range g.IncidentEdgeIDs(node) {
		e := edges[k]
		w := e.From
		if w == node {
			w = e.To
		}
		if st.deploy[w] >= 0 {
			continue
		}
		weight := g.EdgeWeight(int(k))
		row := st.scores[w*ns : (w+1)*ns]
		if e.From == w {
			// Link would run w -> node: cost from candidate v to x.
			for v := range row {
				if c := weight * m.At(v, x); c > row[v] {
					row[v] = c
				}
			}
		} else {
			// Link would run node -> w: cost from x to candidate v.
			xr := m.Row(x)
			for v := range row {
				if c := weight * xr[v]; c > row[v] {
					row[v] = c
				}
			}
		}
	}
}

// ensureScores builds the G2 score matrix for the nodes mapped so far; all
// later assignments keep it current through foldScores.
func (st *state) ensureScores() {
	if st.scores != nil {
		return
	}
	st.scores = make([]float64, st.p.Graph.NumNodes()*st.p.Costs.Size())
	for node, inst := range st.deploy {
		if inst >= 0 {
			st.foldScores(node)
		}
	}
}

// unmatchedNeighbour iterates node's undirected neighbourhood (out then in).
func (st *state) unmatchedNeighbour(node int) (int, bool) {
	for _, w := range st.p.Graph.Out(node) {
		if st.deploy[w] < 0 {
			return w, true
		}
	}
	for _, w := range st.p.Graph.In(node) {
		if st.deploy[w] < 0 {
			return w, true
		}
	}
	return 0, false
}

func (st *state) hasUnmatchedNeighbour(node int) bool {
	_, ok := st.unmatchedNeighbour(node)
	return ok
}

// hasMappedNeighbour reports whether any neighbour of node (either
// direction) is already deployed.
func (st *state) hasMappedNeighbour(node int) bool {
	for _, w := range st.p.Graph.Out(node) {
		if st.deploy[w] >= 0 {
			return true
		}
	}
	for _, w := range st.p.Graph.In(node) {
		if st.deploy[w] >= 0 {
			return true
		}
	}
	return false
}

// seedFirstEdge performs lines 1-3 of both algorithms: map an arbitrary edge
// (the first) onto the cheapest instance pair. Graphs without edges are
// seeded as a bare component instead.
func (st *state) seedFirstEdge() {
	g := st.p.Graph
	if g.NumEdges() == 0 {
		st.seedComponent()
		return
	}
	m := st.p.Costs
	n := m.Size()
	bu, bv, best := -1, -1, math.Inf(1)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && m.At(u, v) < best {
				bu, bv, best = u, v, m.At(u, v)
			}
		}
	}
	e := g.Edges()[0]
	st.assign(e.From, bu)
	st.assign(e.To, bv)
}

// seedComponent maps one still-unmapped node. If that node has an unmapped
// neighbour, the pair is placed on the cheapest unused instance pair (a
// fresh copy of lines 1-3 restricted to unused instances); otherwise the
// isolated node takes the lowest-numbered unused instance, since no link
// constrains it.
func (st *state) seedComponent() {
	node := -1
	for v, inst := range st.deploy {
		if inst < 0 {
			node = v
			break
		}
	}
	if node < 0 {
		return
	}
	if nb, ok := st.unmatchedNeighbour(node); ok {
		m := st.p.Costs
		bu, bv, best := -1, -1, math.Inf(1)
		for u := 0; u < m.Size(); u++ {
			if st.inv[u] >= 0 {
				continue
			}
			for v := 0; v < m.Size(); v++ {
				if u == v || st.inv[v] >= 0 {
					continue
				}
				if m.At(u, v) < best {
					bu, bv, best = u, v, m.At(u, v)
				}
			}
		}
		st.assign(node, bu)
		st.assign(nb, bv)
		return
	}
	for inst, occupant := range st.inv {
		if occupant < 0 {
			st.assign(node, inst)
			return
		}
	}
}

// completeCheap finishes the deployment after the time budget's fallback
// cutoff: each remaining node (ascending) takes the free instance with the
// cheapest link from its first mapped neighbour's instance — one row scan,
// no frontier search — or the lowest-numbered free instance when none of
// its neighbours is mapped yet. Assignments bypass the G2 score folding:
// nothing reads the scores after completion.
func (st *state) completeCheap() {
	m := st.p.Costs
	n := m.Size()
	free := 0
	for w := range st.deploy {
		if st.deploy[w] >= 0 {
			continue
		}
		inst := -1
		if anchor := st.mappedNeighbourInstance(w); anchor >= 0 {
			row := m.Row(anchor)
			best := math.Inf(1)
			for v := 0; v < n; v++ {
				if st.inv[v] < 0 && row[v] < best {
					best, inst = row[v], v
				}
			}
		}
		if inst < 0 {
			for st.inv[free] >= 0 {
				free++
			}
			inst = free
		}
		st.deploy[w] = inst
		st.inv[inst] = w
		st.mapped++
	}
}

// mappedNeighbourInstance returns the instance of node's first mapped
// neighbour (out then in), or -1.
func (st *state) mappedNeighbourInstance(node int) int {
	for _, w := range st.p.Graph.Out(node) {
		if st.deploy[w] >= 0 {
			return st.deploy[w]
		}
	}
	for _, w := range st.p.Graph.In(node) {
		if st.deploy[w] >= 0 {
			return st.deploy[w]
		}
	}
	return -1
}

// stepG1 performs one iteration of Algorithm 1: take the cheapest link
// (u, v) from a mapped instance with unmatched neighbours to an unused
// instance, and map one unmatched neighbour onto v. Each mapped instance's
// candidate comes from its sorted cursor instead of a row rescan.
func (st *state) stepG1() bool {
	st.ensureRows()
	m := st.p.Costs
	n := m.Size()
	cmin := math.Inf(1)
	umin, vmin := -1, -1
	for u := 0; u < n; u++ {
		node := st.inv[u]
		if node < 0 || !st.hasUnmatchedNeighbour(node) {
			continue
		}
		row := st.rows[u]
		cur := st.cursor[u]
		for cur < len(row) && st.inv[row[cur]] >= 0 {
			cur++
		}
		st.cursor[u] = cur
		if cur == len(row) {
			continue
		}
		v := int(row[cur])
		if c := m.At(u, v); c < cmin {
			cmin = c
			umin, vmin = u, v
		}
	}
	if umin < 0 {
		return false
	}
	w, _ := st.unmatchedNeighbour(st.inv[umin])
	st.assign(w, vmin)
	return true
}

// stepG2 performs one iteration of Algorithm 2: cost each candidate (w, v) —
// a frontier node w placed on a free instance v — by the worst link it would
// create towards w's already-mapped neighbours (weighted and
// direction-aware), and take the candidate minimizing that worst cost. The
// scores come from the incrementally maintained matrix (see foldScores);
// candidates are visited in the same (w ascending, v ascending) order with
// a strict-improvement test, so the selected candidate is identical to the
// previous per-step rescoring.
func (st *state) stepG2() bool {
	st.ensureScores()
	g := st.p.Graph
	ns := st.p.Costs.Size()
	cmin := math.Inf(1)
	vmin, wmin := -1, -1
	for w := 0; w < g.NumNodes(); w++ {
		if st.deploy[w] >= 0 || !st.hasMappedNeighbour(w) {
			continue
		}
		row := st.scores[w*ns : (w+1)*ns]
		for v, worst := range row {
			if st.inv[v] >= 0 {
				continue
			}
			if worst < cmin {
				cmin = worst
				vmin, wmin = v, w
			}
		}
	}
	if wmin < 0 {
		return false
	}
	st.assign(wmin, vmin)
	return true
}
