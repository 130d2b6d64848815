// Package core defines the node deployment problem from the ClouDiA paper:
// communication graphs over application nodes, injective deployment plans
// mapping nodes to cloud instances, pairwise communication cost matrices, and
// the two deployment cost functions — longest link (Class 1) and longest path
// (Class 2) — that model latency-sensitive HPC and service-oriented cloud
// applications respectively.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// NodeID identifies an application node in a communication graph.
type NodeID = int

// Edge is a directed communication link between two application nodes,
// meaning From talks to To (Definition 3).
type Edge struct {
	From NodeID
	To   NodeID
}

// Graph is a directed communication graph G = (V, E) over application nodes
// 0..n-1, optionally weighted (see weights.go). The edge list is the graph:
// an index maps each edge to its position in the list, weights are a slice
// aligned with it, and every per-node list is read from one adjacency view
// derived from the list on first use.
type Graph struct {
	n     int
	edges []Edge
	index map[Edge]int32 // edge -> its position in edges
	w     []float64      // weight per edges position; nil while every weight is 1

	// viewOnce guards the lazy build of view, so goroutines sharing a
	// finished graph (the multi-tenant serving layer submits many jobs over
	// one graph) can all read it safely; AddEdge drops a built view and
	// resets the Once. Graph construction itself stays single-goroutine.
	viewOnce sync.Once
	view     *adjacency
}

// adjacency is the per-node view of a graph's edge list in compressed sparse
// row form. Node v's out-neighbours are outNbr[outOff[v]:outOff[v+1]], with
// the edges' positions in the edge list at the same slots of outEid; in-lists
// are laid out the same way. The edges with v as either endpoint are
// inc[outOff[v]+inOff[v] : outOff[v+1]+inOff[v+1]]. Every list holds its
// edges in edge-list order.
type adjacency struct {
	outOff, inOff      []int32 // n+1 offsets each
	outEid, inEid, inc []int32
	outNbr, inNbr      []NodeID
}

// NewGraph returns an empty communication graph over n application nodes.
// It panics if n is negative.
func NewGraph(n int) *Graph { return newGraph(n, 0) }

// newGraph is NewGraph with room for edgeHint edges, for builders that know
// their edge count.
func newGraph(n, edgeHint int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("core: negative node count %d", n))
	}
	return &Graph{
		n:     n,
		edges: make([]Edge, 0, edgeHint),
		index: make(map[Edge]int32, edgeHint),
	}
}

// NumNodes reports |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts the directed edge (from, to). Self-loops and duplicate
// edges are rejected, as is any endpoint outside [0, n).
func (g *Graph) AddEdge(from, to NodeID) error {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return fmt.Errorf("core: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if from == to {
		return fmt.Errorf("core: self-loop at node %d", from)
	}
	e := Edge{from, to}
	k := len(g.edges)
	g.index[e] = int32(k)
	if len(g.index) == k {
		// A duplicate: the assignment moved its position, so put it back.
		g.index[e] = int32(slices.Index(g.edges, e))
		return fmt.Errorf("core: duplicate edge (%d,%d)", from, to)
	}
	g.edges = append(g.edges, e)
	if g.w != nil {
		g.w = append(g.w, 1)
	}
	if g.view != nil {
		g.view, g.viewOnce = nil, sync.Once{}
	}
	return nil
}

// EnsureIncidence builds the adjacency view that Out, In, the degrees,
// IncidentEdgeIDs and InEdgeIDs read, if it is not built yet. On a finished
// graph it is safe to call concurrently with itself and those readers:
// racing first calls serialize behind one build and then share it. It is
// not safe to call concurrently with AddEdge.
func (g *Graph) EnsureIncidence() { g.adjacency() }

func (g *Graph) adjacency() *adjacency {
	g.viewOnce.Do(g.buildView)
	return g.view
}

// buildView derives the adjacency view from the edge list with a stable
// counting sort: it counts each node's out- and in-edges, sums the counts so
// each offset ends its node's list, then fills the lists from the last edge
// back, walking each offset down to its list's start.
func (g *Graph) buildView() {
	n, m := g.n, len(g.edges)
	ids, nbr := make([]int32, 2*(n+1)+4*m), make([]NodeID, 2*m)
	take := func(k int) (s []int32) { s, ids = ids[:k:k], ids[k:]; return s }
	a := &adjacency{outOff: take(n + 1), inOff: take(n + 1), outEid: take(m), inEid: take(m),
		inc: take(2 * m), outNbr: nbr[:m:m], inNbr: nbr[m:]}
	for _, e := range g.edges {
		a.outOff[e.From]++
		a.inOff[e.To]++
	}
	for v := 1; v < n; v++ {
		a.outOff[v] += a.outOff[v-1]
		a.inOff[v] += a.inOff[v-1]
	}
	a.outOff[n], a.inOff[n] = int32(m), int32(m)
	for k := m - 1; k >= 0; k-- {
		e := g.edges[k]
		a.outOff[e.From]--
		a.inOff[e.To]--
		i, j := a.outOff[e.From], a.inOff[e.To]
		a.outNbr[i], a.outEid[i] = e.To, int32(k)
		a.inNbr[j], a.inEid[j] = e.From, int32(k)
		// A node's incident list starts at its out offset plus its in
		// offset, and it has as many slots left to fill as out and in
		// slots together.
		a.inc[i+a.inOff[e.From]] = int32(k)
		a.inc[a.outOff[e.To]+j] = int32(k)
	}
	g.view = a
}

// IncidentEdgeIDs returns the indices (into Edges()) of every edge with v as
// either endpoint, in edge-list order. Callers must not modify the returned
// slice.
func (g *Graph) IncidentEdgeIDs(v NodeID) []int32 {
	a := g.adjacency()
	lo, hi := a.outOff[v]+a.inOff[v], a.outOff[v+1]+a.inOff[v+1]
	return a.inc[lo:hi:hi]
}

// InEdgeIDs returns the indices (into Edges()) of every edge into v, in
// edge-list order. Callers must not modify the returned slice.
func (g *Graph) InEdgeIDs(v NodeID) []int32 {
	a := g.adjacency()
	return a.inEid[a.inOff[v]:a.inOff[v+1]:a.inOff[v+1]]
}

// AddBiEdge inserts both (a,b) and (b,a). It is a convenience for mesh-like
// templates where communication is symmetric.
func (g *Graph) AddBiEdge(a, b NodeID) error {
	if err := g.AddEdge(a, b); err != nil {
		return err
	}
	return g.AddEdge(b, a)
}

// HasEdge reports whether the directed edge (from, to) is present.
func (g *Graph) HasEdge(from, to NodeID) bool {
	_, ok := g.index[Edge{from, to}]
	return ok
}

// Edges returns the edge list in insertion order. Callers must not modify
// the returned slice.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the out-neighbours of node v in edge-list order. Callers must
// not modify the returned slice.
func (g *Graph) Out(v NodeID) []NodeID {
	a := g.adjacency()
	return a.outNbr[a.outOff[v]:a.outOff[v+1]:a.outOff[v+1]]
}

// In returns the in-neighbours of node v in edge-list order. Callers must
// not modify the returned slice.
func (g *Graph) In(v NodeID) []NodeID {
	a := g.adjacency()
	return a.inNbr[a.inOff[v]:a.inOff[v+1]:a.inOff[v+1]]
}

// OutDegree reports len(Out(v)).
func (g *Graph) OutDegree(v NodeID) int { return len(g.Out(v)) }

// InDegree reports len(In(v)).
func (g *Graph) InDegree(v NodeID) int { return len(g.In(v)) }

// Degree reports the total degree of v (in + out).
func (g *Graph) Degree(v NodeID) int { return len(g.IncidentEdgeIDs(v)) }

// Clone returns a deep copy of the graph, including edge weights.
func (g *Graph) Clone() *Graph { return g.copyEdges(false) }

// Transposed returns the graph with every edge reversed, carrying edge
// weights along.
func (g *Graph) Transposed() *Graph { return g.copyEdges(true) }

// copyEdges returns a copy of g, with every edge reversed if flip. Its k-th
// edge is g's k-th edge, so the weights copy across unchanged.
func (g *Graph) copyEdges(flip bool) *Graph {
	c := newGraph(g.n, len(g.edges))
	for k, e := range g.edges {
		if flip {
			e = Edge{From: e.To, To: e.From}
		}
		c.index[e] = int32(k)
		c.edges = append(c.edges, e)
	}
	c.w = slices.Clone(g.w)
	return c
}

// ErrCyclic is returned when a DAG-only operation is applied to a graph that
// contains a directed cycle.
var ErrCyclic = errors.New("core: communication graph contains a directed cycle")

// TopoOrder returns a topological order of the graph's nodes, or ErrCyclic if
// the graph has a directed cycle. Nodes with no edges appear in the order too.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	a := g.adjacency()
	indeg := make([]int32, g.n)
	order := make([]NodeID, 0, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = a.inOff[v+1] - a.inOff[v]
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	// order doubles as the FIFO queue of ready nodes.
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, w := range a.outNbr[a.outOff[v]:a.outOff[v+1]] {
			indeg[w]--
			if indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCyclic
	}
	return order, nil
}

// IsDAG reports whether the graph is acyclic.
func (g *Graph) IsDAG() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// Validate checks internal consistency of the graph structure: every edge
// is in range, distinct and indexed at its position, weights are aligned
// and positive, and the adjacency view agrees with the edge list. It is
// used by tests and by code paths that deserialize graphs from user input.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("core: negative node count %d", g.n)
	}
	if len(g.index) != len(g.edges) || (g.w != nil && len(g.w) != len(g.edges)) {
		return errors.New("core: edge index or weights misaligned with the edge list")
	}
	for k, e := range g.edges {
		if e.From < 0 || e.From >= g.n || e.To < 0 || e.To >= g.n || e.From == e.To {
			return fmt.Errorf("core: invalid edge (%d,%d)", e.From, e.To)
		}
		if i, ok := g.index[e]; !ok || int(i) != k {
			return fmt.Errorf("core: edge (%d,%d) missing from the edge index", e.From, e.To)
		}
		if !(g.EdgeWeight(k) > 0) {
			return fmt.Errorf("core: non-positive weight on edge (%d,%d)", e.From, e.To)
		}
	}
	a := g.adjacency()
	for v := 0; v < g.n; v++ {
		for j := a.outOff[v]; j < a.outOff[v+1]; j++ {
			if g.edges[a.outEid[j]] != (Edge{v, a.outNbr[j]}) {
				return fmt.Errorf("core: adjacency edge (%d,%d) missing from edge list", v, a.outNbr[j])
			}
		}
		for j := a.inOff[v]; j < a.inOff[v+1]; j++ {
			if g.edges[a.inEid[j]] != (Edge{a.inNbr[j], v}) {
				return fmt.Errorf("core: adjacency edge (%d,%d) missing from edge list", a.inNbr[j], v)
			}
		}
	}
	if int(a.outOff[g.n]) != len(g.edges) || int(a.inOff[g.n]) != len(g.edges) {
		return fmt.Errorf("core: edge count mismatch: adjacency %d vs list %d", a.outOff[g.n], len(g.edges))
	}
	return nil
}
