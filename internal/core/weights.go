package core

import "fmt"

// Weighted communication graphs are the paper's first listed piece of future
// work ("we plan to extend our formulation to support weighted communication
// graphs", Sect. 8; also Sect. 3.3). A weight on edge (i, j) scales the
// communication cost of that link in both deployment cost functions:
//
//	longest link:  max over edges of  w(e) * CL(D(i), D(j))
//	longest path:  max over paths of  sum of w(e) * CL(D(i), D(j))
//
// modelling links that carry more traffic, larger messages, or more rounds
// per interaction. Weights default to 1, so unweighted graphs behave exactly
// as before. All solvers support weights: the cost-driven solvers (greedy
// G2, R1/R2, SA, MIP) through the cost functions, and CP through per-weight
// threshold adjacencies.

// SetWeight assigns a positive weight to an existing edge. Weight 1 (the
// default for every edge) restores unweighted semantics.
func (g *Graph) SetWeight(from, to NodeID, w float64) error {
	return g.SetWeights([]EdgeWeight{{From: from, To: to, W: w}})
}

// EdgeWeight is one edge's weight, the unit of SetWeights.
type EdgeWeight struct {
	From, To NodeID
	W        float64
}

// SetWeights assigns every listed weight as SetWeight would, in list order
// (a later entry for the same edge wins), but rebuilds the weight caches
// once: weighting all E edges costs O(E), not one O(E) rebuild per edge.
// The whole list is validated first, so on error the graph is unchanged and
// the first bad entry is the one reported.
func (g *Graph) SetWeights(ws []EdgeWeight) error {
	for _, ew := range ws {
		if !(ew.W > 0) {
			return fmt.Errorf("core: non-positive edge weight %g on (%d,%d)", ew.W, ew.From, ew.To)
		}
		if !g.HasEdge(ew.From, ew.To) {
			return fmt.Errorf("core: weight on missing edge (%d,%d)", ew.From, ew.To)
		}
	}
	if len(ws) == 0 {
		return nil
	}
	if g.weights == nil {
		g.weights = make(map[Edge]float64, len(ws))
	}
	for _, ew := range ws {
		if ew.W == 1 {
			delete(g.weights, Edge{ew.From, ew.To})
		} else {
			g.weights[Edge{ew.From, ew.To}] = ew.W
		}
	}
	g.rebuildWeightCaches()
	return nil
}

// Weight reports the weight of edge (from, to), defaulting to 1. The result
// for a missing edge is also 1; callers interrogate HasEdge separately.
func (g *Graph) Weight(from, to NodeID) float64 {
	if w, ok := g.weights[Edge{from, to}]; ok {
		return w
	}
	return 1
}

// Weighted reports whether any edge carries a weight other than 1.
func (g *Graph) Weighted() bool { return len(g.weights) > 0 }

// DistinctWeights returns the distinct edge weights present, including 1
// when any edge is unweighted. Used by the CP solver to build one threshold
// adjacency per weight class.
func (g *Graph) DistinctWeights() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, e := range g.edges {
		w := g.Weight(e.From, e.To)
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// edgeWeightSlices caches weights aligned with the edge list and out
// adjacency, so the hot cost evaluations avoid map lookups.
func (g *Graph) rebuildWeightCaches() {
	if len(g.weights) == 0 {
		// Empty caches read as all-ones; AddEdge keeps non-empty ones
		// aligned only while some weight is set.
		g.edgeW, g.outW = nil, nil
		return
	}
	g.edgeW = g.edgeW[:0]
	for _, e := range g.edges {
		g.edgeW = append(g.edgeW, g.Weight(e.From, e.To))
	}
	if g.outW == nil {
		g.outW = make([][]float64, g.n)
	}
	for v := 0; v < g.n; v++ {
		g.outW[v] = g.outW[v][:0]
		for _, w := range g.out[v] {
			g.outW[v] = append(g.outW[v], g.Weight(v, w))
		}
	}
}

// edgeWeight returns the cached weight of the k-th edge in Edges() order,
// treating an empty cache as all-ones.
func (g *Graph) edgeWeight(k int) float64 {
	if len(g.edgeW) == 0 {
		return 1
	}
	return g.edgeW[k]
}

// outWeight returns the cached weight of the k-th out-edge of v, treating an
// empty cache as all-ones.
func (g *Graph) outWeight(v NodeID, k int) float64 {
	if len(g.outW) == 0 || len(g.outW[v]) == 0 {
		return 1
	}
	return g.outW[v][k]
}
