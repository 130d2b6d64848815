package solver

import (
	"fmt"

	"cloudia/internal/core"
)

// DeltaEvaluator evaluates the cost of local-search moves (swap the
// instances of two nodes, or relocate a node to a free instance)
// incrementally, in ~O(deg(u)+deg(v)) instead of the O(E) or O(V+E) full
// recomputation of Problem.Cost. The protocol is propose/commit/reject:
//
//	cand := ev.SwapCost(a, b)     // or ev.RelocateCost(node, inst)
//	if accept {
//		ev.Commit()
//	} else {
//		ev.Reject()
//	}
//
// Exactly one proposal may be outstanding at a time, and every proposal must
// be resolved by Commit or Reject before the next one (or before reading
// Cost or Deployment). The reported costs are bit-for-bit identical to the
// corresponding full recomputation. Evaluators allocate only at
// construction, so steady-state local search runs allocation-free. They are
// not safe for concurrent use; concurrent searches hold one each.
type DeltaEvaluator interface {
	// Cost reports the cost of the current (committed) deployment.
	Cost() float64
	// SwapCost proposes exchanging the instances of nodes a and b and
	// returns the resulting deployment cost.
	SwapCost(a, b int) float64
	// RelocateCost proposes moving node to the free instance inst and
	// returns the resulting deployment cost. It panics if inst is occupied.
	RelocateCost(node, inst int) float64
	// Commit accepts the outstanding proposal.
	Commit()
	// Reject discards the outstanding proposal, restoring the previous
	// deployment and cost.
	Reject()
	// Deployment returns the current deployment. The slice is owned by the
	// evaluator: callers must copy it to retain a snapshot and must not
	// modify it.
	Deployment() core.Deployment
	// InstanceNode reports which node occupies instance inst, or -1 if it
	// is free.
	InstanceNode(inst int) int
	// Reset reloads the evaluator from a fresh deployment (copied in) and
	// returns its cost.
	Reset(d core.Deployment) float64
}

// NewDeltaEvaluator returns an evaluator for the problem's objective,
// initialized at deployment d (copied in).
func NewDeltaEvaluator(p *Problem, d core.Deployment) DeltaEvaluator {
	switch p.Objective {
	case LongestLink:
		return newLLEvaluator(p, d)
	case LongestPath:
		return newLPEvaluator(p, d)
	}
	panic("solver: unreachable objective")
}

// moveKind tags the outstanding proposal.
type moveKind int8

const (
	moveNone moveKind = iota
	moveSwap
	moveRelocate
)

// moveBase holds the deployment state and proposal bookkeeping shared by the
// two evaluators.
type moveBase struct {
	d   core.Deployment
	inv []int32 // instance -> node+1, 0 if free

	kind moveKind
	mvA  int // swap: node a; relocate: node
	mvB  int // swap: node b; relocate: -1
	oldA int // previous instance of mvA
	oldB int // previous instance of mvB (swap only)
}

func (b *moveBase) init(p *Problem, d core.Deployment) {
	if len(d) != p.NumNodes() {
		panic(fmt.Sprintf("solver: deployment length %d != %d nodes", len(d), p.NumNodes()))
	}
	if b.d == nil {
		b.d = make(core.Deployment, len(d))
		b.inv = make([]int32, p.NumInstances())
	}
	copy(b.d, d)
	for i := range b.inv {
		b.inv[i] = 0
	}
	for node, inst := range b.d {
		b.inv[inst] = int32(node) + 1
	}
	b.kind = moveNone
}

func (b *moveBase) Deployment() core.Deployment { return b.d }

func (b *moveBase) InstanceNode(inst int) int { return int(b.inv[inst]) - 1 }

// beginSwap applies the deployment half of a swap proposal.
func (b *moveBase) beginSwap(x, y int) {
	if b.kind != moveNone {
		panic("solver: proposal already outstanding")
	}
	b.kind, b.mvA, b.mvB = moveSwap, x, y
	b.oldA, b.oldB = b.d[x], b.d[y]
	b.d[x], b.d[y] = b.oldB, b.oldA
	b.inv[b.oldA], b.inv[b.oldB] = int32(y)+1, int32(x)+1
}

// beginRelocate applies the deployment half of a relocate proposal.
func (b *moveBase) beginRelocate(node, inst int) {
	if b.kind != moveNone {
		panic("solver: proposal already outstanding")
	}
	if b.inv[inst] != 0 {
		panic(fmt.Sprintf("solver: relocate target instance %d occupied by node %d", inst, b.inv[inst]-1))
	}
	b.kind, b.mvA, b.mvB = moveRelocate, node, -1
	b.oldA = b.d[node]
	b.d[node] = inst
	b.inv[b.oldA] = 0
	b.inv[inst] = int32(node) + 1
}

// undoMove restores the deployment half of the outstanding proposal.
func (b *moveBase) undoMove() {
	switch b.kind {
	case moveSwap:
		b.d[b.mvA], b.d[b.mvB] = b.oldA, b.oldB
		b.inv[b.oldA], b.inv[b.oldB] = int32(b.mvA)+1, int32(b.mvB)+1
	case moveRelocate:
		inst := b.d[b.mvA]
		b.d[b.mvA] = b.oldA
		b.inv[inst] = 0
		b.inv[b.oldA] = int32(b.mvA) + 1
	default:
		panic("solver: no proposal outstanding")
	}
	b.kind = moveNone
}

// pendEntry is one edge-cost (LL) or node-dist (LP) change staged by the
// outstanding proposal.
type pendEntry struct {
	idx int32
	val float64
}

// ---------------------------------------------------------------------------
// Longest link: per-edge costs plus a witnessed running maximum.
// ---------------------------------------------------------------------------

// llEvaluator maintains the cost of every graph edge under the current
// deployment, the maximum edge cost, and one witness edge attaining it. A
// proposal re-prices only the edges incident to the moved node(s), writing
// changes through with an undo list. The candidate maximum follows from the
// witness rule — every unchanged edge still sits at or below maxVal, so:
//
//   - witness edge unchanged: candidate = max(maxVal, changed costs), O(1);
//   - witness changed but some changed cost reaches maxVal: that cost is
//     the maximum, O(1);
//   - witness changed and every changed cost dropped below maxVal (the
//     rare all-maxima-lowered case, ≈deg/E of moves): one O(E) rescan.
//
// Commit is O(1); Reject restores the undo list and two deployment words.
// Incidence is stored CSR-style, split into out-edges then in-edges per
// node, so each direction's inner loop keeps the moved node's side of the
// cost lookup fixed.
type llEvaluator struct {
	moveBase
	p        *Problem
	weighted bool

	incStart []int32   // CSR: node v's incidences are slots incStart[v]..incStart[v+1]
	incSplit []int32   // slots before incSplit[v] are out-edges, after are in-edges
	incOther []int32   // the neighbour endpoint in each slot
	incEdge  []int32   // the edge id in each slot
	incW     []float64 // the edge weight in each slot; nil when unweighted
	edgeCost []float64 // cost per edge id (written through during proposals)

	maxVal  float64 // max over committed edge costs
	maxEdge int32   // one edge attaining maxVal (-1 when there are no edges)

	pend     []pendEntry // (edge, previous cost) undo list
	pendCand float64     // staged candidate cost
	pendMax  int32       // staged witness edge for Commit
}

func newLLEvaluator(p *Problem, d core.Deployment) *llEvaluator {
	e := &llEvaluator{p: p}
	e.Reset(d)
	return e
}

// Reset implements DeltaEvaluator.
func (e *llEvaluator) Reset(d core.Deployment) float64 {
	e.init(e.p, d)
	g := e.p.Graph
	e.weighted = g.Weighted()
	if e.edgeCost == nil {
		ne := g.NumEdges()
		n := g.NumNodes()
		e.edgeCost = make([]float64, ne)
		e.incStart = make([]int32, n+1)
		e.incSplit = make([]int32, n)
		e.incOther = make([]int32, 2*ne)
		e.incEdge = make([]int32, 2*ne)
		if e.weighted {
			e.incW = make([]float64, 2*ne)
		}
		edges := g.Edges()
		idx := 0
		for v := 0; v < n; v++ {
			e.incStart[v] = int32(idx)
			for _, k := range g.IncidentEdgeIDs(v) {
				if edges[k].From == v {
					e.fillSlot(idx, k, int32(edges[k].To))
					idx++
				}
			}
			e.incSplit[v] = int32(idx)
			for _, k := range g.IncidentEdgeIDs(v) {
				if edges[k].To == v {
					e.fillSlot(idx, k, int32(edges[k].From))
					idx++
				}
			}
		}
		e.incStart[n] = int32(idx)
		// One proposal touches at most the edges incident to two nodes, so
		// sizing pend for twice the maximum degree up front keeps the
		// evaluator allocation-free in steady state — a smaller guess would
		// make the first dense-graph proposal grow the slice and smear
		// mystery bytes across benchmark windows.
		maxDeg := 0
		for v := 0; v < n; v++ {
			if deg := int(e.incStart[v+1] - e.incStart[v]); deg > maxDeg {
				maxDeg = deg
			}
		}
		e.pend = make([]pendEntry, 0, 2*maxDeg)
	}
	edges := g.Edges()
	for k := range e.edgeCost {
		c := e.p.Costs.At(e.d[edges[k].From], e.d[edges[k].To])
		if e.weighted {
			c = g.EdgeWeight(k) * c
		}
		e.edgeCost[k] = c
	}
	e.rescanCommitted()
	return e.maxVal
}

func (e *llEvaluator) fillSlot(idx int, k int32, other int32) {
	e.incEdge[idx] = k
	e.incOther[idx] = other
	if e.incW != nil {
		e.incW[idx] = e.p.Graph.EdgeWeight(int(k))
	}
}

// rescanCommitted recomputes maxVal/maxEdge from the committed edge costs.
func (e *llEvaluator) rescanCommitted() {
	e.maxVal, e.maxEdge = 0, -1
	for k, c := range e.edgeCost {
		if c > e.maxVal || e.maxEdge < 0 {
			e.maxVal, e.maxEdge = c, int32(k)
		}
	}
}

// scanIncident re-prices node's incident edges under the proposed
// deployment, writing changes through with an undo record. It returns
// whether the witness edge changed, plus the running maximum over changed
// costs and its edge. Writing through auto-deduplicates the edge a swap
// shares between its two endpoints: the second visit sees the already
// updated cost and skips it.
func (e *llEvaluator) scanIncident(node int, witnessHit bool, newMax float64, newMaxEdge int32) (bool, float64, int32) {
	m := e.p.Costs
	dn := e.d[node]
	start, split, end := e.incStart[node], e.incSplit[node], e.incStart[node+1]
	if e.weighted {
		for idx := start; idx < split; idx++ {
			c := e.incW[idx] * m.At(dn, e.d[e.incOther[idx]])
			k := e.incEdge[idx]
			if c != e.edgeCost[k] {
				witnessHit, newMax, newMaxEdge = e.writeThrough(k, c, witnessHit, newMax, newMaxEdge)
			}
		}
		for idx := split; idx < end; idx++ {
			c := e.incW[idx] * m.At(e.d[e.incOther[idx]], dn)
			k := e.incEdge[idx]
			if c != e.edgeCost[k] {
				witnessHit, newMax, newMaxEdge = e.writeThrough(k, c, witnessHit, newMax, newMaxEdge)
			}
		}
		return witnessHit, newMax, newMaxEdge
	}
	for idx := start; idx < split; idx++ {
		c := m.At(dn, e.d[e.incOther[idx]])
		k := e.incEdge[idx]
		if c != e.edgeCost[k] {
			witnessHit, newMax, newMaxEdge = e.writeThrough(k, c, witnessHit, newMax, newMaxEdge)
		}
	}
	for idx := split; idx < end; idx++ {
		c := m.At(e.d[e.incOther[idx]], dn)
		k := e.incEdge[idx]
		if c != e.edgeCost[k] {
			witnessHit, newMax, newMaxEdge = e.writeThrough(k, c, witnessHit, newMax, newMaxEdge)
		}
	}
	return witnessHit, newMax, newMaxEdge
}

func (e *llEvaluator) writeThrough(k int32, c float64, witnessHit bool, newMax float64, newMaxEdge int32) (bool, float64, int32) {
	e.pend = append(e.pend, pendEntry{idx: k, val: e.edgeCost[k]})
	e.edgeCost[k] = c
	if k == e.maxEdge {
		witnessHit = true
	}
	if c > newMax || newMaxEdge < 0 {
		newMax, newMaxEdge = c, k
	}
	return witnessHit, newMax, newMaxEdge
}

// finishProposal resolves the candidate cost and the staged witness by the
// witness rule; only the all-maxima-lowered case pays an O(E) rescan over
// the (already written-through) edge costs.
func (e *llEvaluator) finishProposal(witnessHit bool, newMax float64, newMaxEdge int32) float64 {
	if !witnessHit {
		e.pendCand, e.pendMax = e.maxVal, e.maxEdge
		if newMaxEdge >= 0 && newMax > e.maxVal {
			e.pendCand, e.pendMax = newMax, newMaxEdge
		}
		return e.pendCand
	}
	if newMaxEdge >= 0 && newMax >= e.maxVal {
		e.pendCand, e.pendMax = newMax, newMaxEdge
		return newMax
	}
	cand, candEdge := 0.0, int32(-1)
	for k, c := range e.edgeCost {
		if c > cand || candEdge < 0 {
			cand, candEdge = c, int32(k)
		}
	}
	e.pendCand, e.pendMax = cand, candEdge
	return cand
}

// Cost implements DeltaEvaluator.
func (e *llEvaluator) Cost() float64 { return e.maxVal }

// SwapCost implements DeltaEvaluator.
func (e *llEvaluator) SwapCost(a, b int) float64 {
	e.beginSwap(a, b)
	hit, newMax, newMaxEdge := e.scanIncident(a, false, 0, -1)
	hit, newMax, newMaxEdge = e.scanIncident(b, hit, newMax, newMaxEdge)
	return e.finishProposal(hit, newMax, newMaxEdge)
}

// RelocateCost implements DeltaEvaluator.
func (e *llEvaluator) RelocateCost(node, inst int) float64 {
	e.beginRelocate(node, inst)
	hit, newMax, newMaxEdge := e.scanIncident(node, false, 0, -1)
	return e.finishProposal(hit, newMax, newMaxEdge)
}

// Commit implements DeltaEvaluator.
func (e *llEvaluator) Commit() {
	if e.kind == moveNone {
		panic("solver: no proposal outstanding")
	}
	e.kind = moveNone
	e.maxVal, e.maxEdge = e.pendCand, e.pendMax
	e.pend = e.pend[:0]
}

// Reject implements DeltaEvaluator.
func (e *llEvaluator) Reject() {
	e.undoMove()
	for i := len(e.pend) - 1; i >= 0; i-- {
		e.edgeCost[e.pend[i].idx] = e.pend[i].val
	}
	e.pend = e.pend[:0]
}

// ---------------------------------------------------------------------------
// Longest path: affected-suffix recomputation over the cached topo order.
// ---------------------------------------------------------------------------

// lpEvaluator maintains the longest path cost ending at every node for the
// DAG under the current deployment, laid out in topological-position space
// (distP[i] belongs to the i-th node of the topo order), together with the
// maximum dist and one witness position attaining it. A proposal seeds the
// moved nodes and their out-neighbours into a min-heap of dirty positions
// and relaxes in ascending topo order, following only positions whose dist
// actually changed — the affected suffix of the cached order, skipping its
// unaffected middle. Changed dists are written through with an undo list,
// so the candidate cost is
//
//   - max(bestVal, changed dists) when the witness position is unchanged
//     (everything unchanged still sits at or below the committed maximum);
//   - one O(V) rescan over distP otherwise (≈|changed|/V of moves).
//
// Commit is O(1); Reject restores the undo list. In-adjacency is CSR by
// destination position so a relaxation is a tight flat-array loop.
type lpEvaluator struct {
	moveBase
	p        *Problem
	weighted bool

	orderNode []int32   // pos -> node
	pos       []int32   // node -> pos
	inStart   []int32   // CSR: in-edges of position i are slots inStart[i]..inStart[i+1]
	inSrcPos  []int32   // source position per slot
	inSrcNode []int32   // source node per slot (for deployment lookup)
	inW       []float64 // weight per slot; nil when unweighted
	outPos    [][]int32 // out-neighbour positions per position
	distP     []float64 // longest path cost ending at each position

	bestVal float64 // max over distP
	bestPos int32   // one position attaining bestVal (-1 when there are no nodes)
	// onlySink is the position of the DAG's unique sink, or -1. With one
	// sink, every node reaches it, and non-negative link costs make its
	// dist dominate all others — so the maximum is read off in O(1) and no
	// move ever needs a rescan. Aggregation trees, the paper's canonical
	// Class-2 workload, always hit this fast path.
	onlySink int32

	dirtyP []bool  // position queued in the heap; all false between proposals
	heap   []int32 // min-heap of dirty positions, relaxed in topo order

	pend     []pendEntry // (position, previous dist) undo list
	pendBest float64     // staged maximum for Commit
	pendPos  int32       // staged witness for Commit
}

func newLPEvaluator(p *Problem, d core.Deployment) *lpEvaluator {
	e := &lpEvaluator{p: p}
	e.Reset(d)
	return e
}

// Reset implements DeltaEvaluator.
func (e *lpEvaluator) Reset(d core.Deployment) float64 {
	e.init(e.p, d)
	g := e.p.Graph
	n := e.p.NumNodes()
	e.weighted = g.Weighted()
	if e.distP == nil {
		order := e.p.TopoOrder()
		e.orderNode = make([]int32, n)
		e.pos = make([]int32, n)
		for i, v := range order {
			e.orderNode[i] = int32(v)
			e.pos[v] = int32(i)
		}
		e.inStart = make([]int32, n+1)
		e.inSrcPos = make([]int32, g.NumEdges())
		e.inSrcNode = make([]int32, g.NumEdges())
		if e.weighted {
			e.inW = make([]float64, g.NumEdges())
		}
		edges := g.Edges()
		idx := 0
		for i := 0; i < n; i++ {
			e.inStart[i] = int32(idx)
			v := int(e.orderNode[i])
			for _, k := range g.InEdgeIDs(v) {
				u := edges[k].From
				e.inSrcPos[idx] = e.pos[u]
				e.inSrcNode[idx] = int32(u)
				if e.weighted {
					e.inW[idx] = g.EdgeWeight(int(k))
				}
				idx++
			}
		}
		e.inStart[n] = int32(idx)
		e.outPos = make([][]int32, n)
		for i := 0; i < n; i++ {
			v := int(e.orderNode[i])
			outs := g.Out(v)
			ops := make([]int32, len(outs))
			for j, w := range outs {
				ops[j] = e.pos[w]
			}
			e.outPos[i] = ops
		}
		e.distP = make([]float64, n)
		e.dirtyP = make([]bool, n)
		e.heap = make([]int32, 0, n)
		// Each node is dirtied at most once per proposal, so n entries keep
		// the propagation allocation-free even for moves that ripple across
		// the whole DAG (see the llEvaluator pend sizing note).
		e.pend = make([]pendEntry, 0, n)
		e.onlySink = -1
		for i := 0; i < n; i++ {
			if len(e.outPos[i]) == 0 {
				if e.onlySink >= 0 {
					e.onlySink = -2 // more than one sink
					break
				}
				e.onlySink = int32(i)
			}
		}
		if e.onlySink < 0 {
			e.onlySink = -1
		}
	}
	e.bestVal, e.bestPos = 0, -1
	for i := 0; i < n; i++ {
		e.distP[i] = e.relax(i)
		if e.distP[i] > e.bestVal || e.bestPos < 0 {
			e.bestVal, e.bestPos = e.distP[i], int32(i)
		}
	}
	return e.bestVal
}

// relax recomputes the longest path cost ending at position i from its
// in-edges with the same float operations as core.longestPathInOrder, so
// results match bit-for-bit.
func (e *lpEvaluator) relax(i int) float64 {
	m := e.p.Costs
	dv := e.d[e.orderNode[i]]
	nd := 0.0
	if e.weighted {
		for x := e.inStart[i]; x < e.inStart[i+1]; x++ {
			c := e.distP[e.inSrcPos[x]] + e.inW[x]*m.At(e.d[e.inSrcNode[x]], dv)
			if c > nd {
				nd = c
			}
		}
		return nd
	}
	for x := e.inStart[i]; x < e.inStart[i+1]; x++ {
		c := e.distP[e.inSrcPos[x]] + m.At(e.d[e.inSrcNode[x]], dv)
		if c > nd {
			nd = c
		}
	}
	return nd
}

// markDirty queues position j for relaxation unless already queued.
func (e *lpEvaluator) markDirty(j int32) {
	if e.dirtyP[j] {
		return
	}
	e.dirtyP[j] = true
	e.heap = append(e.heap, j)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.heap[parent] <= e.heap[i] {
			break
		}
		e.heap[parent], e.heap[i] = e.heap[i], e.heap[parent]
		i = parent
	}
}

// popDirty removes and returns the smallest queued position.
func (e *lpEvaluator) popDirty() int32 {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && e.heap[r] < e.heap[l] {
			l = r
		}
		if e.heap[i] <= e.heap[l] {
			break
		}
		e.heap[i], e.heap[l] = e.heap[l], e.heap[i]
		i = l
	}
	return top
}

// markMoved seeds the dirty set for a moved node: its own dist depends on
// its in-edge costs, and its out-neighbours' dists on its out-edge costs.
func (e *lpEvaluator) markMoved(node int) {
	i := e.pos[node]
	e.markDirty(i)
	for _, j := range e.outPos[i] {
		e.markDirty(j)
	}
}

// propagate drains the dirty heap in ascending topo order, writing changed
// dists through (with an undo record), and resolves the candidate cost via
// the best-witness rule.
func (e *lpEvaluator) propagate() float64 {
	witnessHit := false
	newMax, newMaxPos := 0.0, int32(-1)
	for len(e.heap) > 0 {
		i := e.popDirty()
		e.dirtyP[i] = false
		nd := e.relax(int(i))
		if nd == e.distP[i] {
			continue
		}
		e.pend = append(e.pend, pendEntry{idx: i, val: e.distP[i]})
		e.distP[i] = nd
		for _, j := range e.outPos[i] {
			e.markDirty(j)
		}
		if i == e.bestPos {
			witnessHit = true
		}
		if nd > newMax || newMaxPos < 0 {
			newMax, newMaxPos = nd, i
		}
	}
	if e.onlySink >= 0 {
		e.pendBest, e.pendPos = e.distP[e.onlySink], e.onlySink
		return e.pendBest
	}
	if !witnessHit {
		e.pendBest, e.pendPos = e.bestVal, e.bestPos
		if newMaxPos >= 0 && newMax > e.bestVal {
			e.pendBest, e.pendPos = newMax, newMaxPos
		}
		return e.pendBest
	}
	if newMaxPos >= 0 && newMax >= e.bestVal {
		e.pendBest, e.pendPos = newMax, newMaxPos
		return newMax
	}
	best, bestPos := 0.0, int32(-1)
	for i, v := range e.distP {
		if v > best || bestPos < 0 {
			best, bestPos = v, int32(i)
		}
	}
	e.pendBest, e.pendPos = best, bestPos
	return best
}

// Cost implements DeltaEvaluator.
func (e *lpEvaluator) Cost() float64 { return e.bestVal }

// SwapCost implements DeltaEvaluator.
func (e *lpEvaluator) SwapCost(a, b int) float64 {
	e.beginSwap(a, b)
	e.markMoved(a)
	e.markMoved(b)
	return e.propagate()
}

// RelocateCost implements DeltaEvaluator.
func (e *lpEvaluator) RelocateCost(node, inst int) float64 {
	e.beginRelocate(node, inst)
	e.markMoved(node)
	return e.propagate()
}

// Commit implements DeltaEvaluator.
func (e *lpEvaluator) Commit() {
	if e.kind == moveNone {
		panic("solver: no proposal outstanding")
	}
	e.kind = moveNone
	e.bestVal, e.bestPos = e.pendBest, e.pendPos
	e.pend = e.pend[:0]
}

// Reject implements DeltaEvaluator.
func (e *lpEvaluator) Reject() {
	e.undoMove()
	for i := len(e.pend) - 1; i >= 0; i-- {
		e.distP[e.pend[i].idx] = e.pend[i].val
	}
	e.pend = e.pend[:0]
}
