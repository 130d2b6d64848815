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
// 0..n-1. Edges carry no weights; the paper leaves weighted graphs to future
// work and so do we (see DESIGN.md).
type Graph struct {
	n     int
	out   [][]NodeID
	in    [][]NodeID
	edges []Edge
	has   map[Edge]bool

	// Edge weights (see weights.go). nil/empty means all weights are 1.
	weights map[Edge]float64
	edgeW   []float64   // cache: weight per Edges() index
	outW    [][]float64 // cache: weight per out-adjacency slot

	// Incidence caches (see buildIncidence): per-node lists of edge indices,
	// used by the delta evaluators to touch only O(deg) edges per move.
	// incOnce guards the lazy build, so goroutines sharing a finished graph
	// (the multi-tenant serving layer submits many jobs over one graph) can
	// all call EnsureIncidence safely; AddEdge swaps in a fresh Once when it
	// invalidates the caches. Graph construction itself stays single-
	// goroutine.
	incOnce  *sync.Once
	incident [][]int32 // edges with either endpoint == v
	inIdx    [][]int32 // edges with To == v
}

// NewGraph returns an empty communication graph over n application nodes.
// It panics if n is negative.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("core: negative node count %d", n))
	}
	return &Graph{
		n:       n,
		out:     make([][]NodeID, n),
		in:      make([][]NodeID, n),
		has:     make(map[Edge]bool),
		incOnce: new(sync.Once),
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
	if g.has[e] {
		return fmt.Errorf("core: duplicate edge (%d,%d)", from, to)
	}
	g.has[e] = true
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
	g.edges = append(g.edges, e)
	g.incident, g.inIdx = nil, nil // invalidate incidence caches
	g.incOnce = new(sync.Once)
	if len(g.weights) > 0 {
		// Keep the weight caches aligned with the new edge.
		g.rebuildWeightCaches()
	}
	return nil
}

// EnsureIncidence builds the per-node incidence caches if they are stale.
// Safe to call concurrently with itself on a finished graph — goroutines
// racing the first call serialize behind one build and then share it (the
// serving layer submits many concurrent jobs over one graph). It is still
// not safe to call concurrently with AddEdge: graph construction is
// single-goroutine, as everywhere else in core.
func (g *Graph) EnsureIncidence() {
	g.incOnce.Do(g.buildIncidence)
}

func (g *Graph) buildIncidence() {
	incident := make([][]int32, g.n)
	inIdx := make([][]int32, g.n)
	for k, e := range g.edges {
		incident[e.From] = append(incident[e.From], int32(k))
		incident[e.To] = append(incident[e.To], int32(k))
		inIdx[e.To] = append(inIdx[e.To], int32(k))
	}
	g.inIdx = inIdx
	g.incident = incident
}

// IncidentEdgeIDs returns the indices (into Edges()) of every edge with v as
// either endpoint. Callers must not modify the returned slice.
func (g *Graph) IncidentEdgeIDs(v NodeID) []int32 {
	g.EnsureIncidence()
	return g.incident[v]
}

// InEdgeIDs returns the indices (into Edges()) of every edge into v. Callers
// must not modify the returned slice.
func (g *Graph) InEdgeIDs(v NodeID) []int32 {
	g.EnsureIncidence()
	return g.inIdx[v]
}

// EdgeWeight reports the weight of the k-th edge in Edges() order (1 for
// unweighted graphs), without a map lookup.
func (g *Graph) EdgeWeight(k int) float64 { return g.edgeWeight(k) }

// AddBiEdge inserts both (a,b) and (b,a). It is a convenience for mesh-like
// templates where communication is symmetric.
func (g *Graph) AddBiEdge(a, b NodeID) error {
	if err := g.AddEdge(a, b); err != nil {
		return err
	}
	return g.AddEdge(b, a)
}

// HasEdge reports whether the directed edge (from, to) is present.
func (g *Graph) HasEdge(from, to NodeID) bool { return g.has[Edge{from, to}] }

// Edges returns the edge list in insertion order. Callers must not modify
// the returned slice.
func (g *Graph) Edges() []Edge { return g.edges }

// Out returns the out-neighbours of node v. Callers must not modify the
// returned slice.
func (g *Graph) Out(v NodeID) []NodeID { return g.out[v] }

// In returns the in-neighbours of node v. Callers must not modify the
// returned slice.
func (g *Graph) In(v NodeID) []NodeID { return g.in[v] }

// OutDegree reports len(Out(v)).
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree reports len(In(v)).
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// Degree reports the total degree of v (in + out).
func (g *Graph) Degree(v NodeID) int { return len(g.in[v]) + len(g.out[v]) }

// Clone returns a deep copy of the graph, including edge weights.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.n)
	for _, e := range g.edges {
		// Edges were validated on insertion; re-adding cannot fail.
		if err := c.AddEdge(e.From, e.To); err != nil {
			panic("core: clone of valid graph failed: " + err.Error())
		}
	}
	// Weights are copied in edge-list order, not weight-map order, so a
	// clone's internal layout is reproducible run to run (maprange), and
	// the caches are rebuilt once.
	if len(g.weights) > 0 {
		c.weights = make(map[Edge]float64, len(g.weights))
		for _, e := range g.edges {
			if w, ok := g.weights[e]; ok {
				c.weights[e] = w
			}
		}
		c.rebuildWeightCaches()
	}
	return c
}

// Transposed returns the graph with every edge reversed, carrying edge
// weights along. The reverse of a valid edge set is valid, so the transpose
// is assembled directly against the adjacency structures in a single pass
// over the edge list — weights are attached as each reversed edge is
// inserted, with one weight-cache rebuild at the end, instead of a second
// edge iteration of SetWeight calls that each rebuild the caches.
func (g *Graph) Transposed() *Graph {
	t := NewGraph(g.n)
	t.edges = make([]Edge, 0, len(g.edges))
	for k, e := range g.edges {
		te := Edge{From: e.To, To: e.From}
		t.has[te] = true
		t.out[te.From] = append(t.out[te.From], te.To)
		t.in[te.To] = append(t.in[te.To], te.From)
		t.edges = append(t.edges, te)
		if w := g.edgeWeight(k); w != 1 {
			if t.weights == nil {
				t.weights = make(map[Edge]float64, len(g.weights))
			}
			t.weights[te] = w
		}
	}
	if t.weights != nil {
		t.rebuildWeightCaches()
	}
	return t
}

// ErrCyclic is returned when a DAG-only operation is applied to a graph that
// contains a directed cycle.
var ErrCyclic = errors.New("core: communication graph contains a directed cycle")

// TopoOrder returns a topological order of the graph's nodes, or ErrCyclic if
// the graph has a directed cycle. Nodes with no edges appear in the order too.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	indeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.in[v])
	}
	queue := make([]NodeID, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]NodeID, 0, g.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
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

// Validate checks internal consistency of the graph structure. It is used by
// tests and by code paths that deserialize graphs from user input.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("core: negative node count %d", g.n)
	}
	if len(g.out) != g.n || len(g.in) != g.n {
		return errors.New("core: adjacency size mismatch")
	}
	count := 0
	for v := 0; v < g.n; v++ {
		for _, w := range g.out[v] {
			if w < 0 || w >= g.n {
				return fmt.Errorf("core: out-neighbour %d of %d out of range", w, v)
			}
			if !g.has[Edge{v, w}] {
				return fmt.Errorf("core: adjacency edge (%d,%d) missing from edge set", v, w)
			}
			count++
		}
	}
	if count != len(g.edges) {
		return fmt.Errorf("core: edge count mismatch: adjacency %d vs list %d", count, len(g.edges))
	}
	return nil
}
