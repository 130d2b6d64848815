package core

import (
	"fmt"
	"slices"
)

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
// (a later entry for the same edge wins). Each entry costs O(1), plus one
// O(E) scan per call when an entry resets a weight to 1, so weighting all E
// edges costs O(E). The whole list is validated first, so on error the
// graph is unchanged and the first bad entry is the one reported.
func (g *Graph) SetWeights(ws []EdgeWeight) error {
	for _, ew := range ws {
		if !(ew.W > 0) {
			return fmt.Errorf("core: non-positive edge weight %g on (%d,%d)", ew.W, ew.From, ew.To)
		}
		if !g.HasEdge(ew.From, ew.To) {
			return fmt.Errorf("core: weight on missing edge (%d,%d)", ew.From, ew.To)
		}
	}
	reset := false
	for _, ew := range ws {
		if g.w == nil && ew.W != 1 {
			g.w = slices.Repeat([]float64{1}, len(g.edges))
		}
		if g.w != nil {
			g.w[g.index[Edge{ew.From, ew.To}]] = ew.W
			reset = reset || ew.W == 1
		}
	}
	if reset && !slices.ContainsFunc(g.w, func(w float64) bool { return w != 1 }) {
		g.w = nil // every weight is 1 again
	}
	return nil
}

// Weight reports the weight of edge (from, to), defaulting to 1. The result
// for a missing edge is also 1; callers interrogate HasEdge separately.
func (g *Graph) Weight(from, to NodeID) float64 {
	if k, ok := g.index[Edge{from, to}]; ok {
		return g.EdgeWeight(int(k))
	}
	return 1
}

// Weighted reports whether any edge carries a weight other than 1.
func (g *Graph) Weighted() bool { return g.w != nil }

// DistinctWeights returns the distinct edge weights present, including 1
// when any edge is unweighted, in order of first appearance in the edge
// list. Used by the CP solver to build one threshold adjacency per weight
// class.
func (g *Graph) DistinctWeights() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for k := range g.edges {
		if w := g.EdgeWeight(k); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// EdgeWeight reports the weight of the k-th edge in Edges() order (1 for
// unweighted graphs), without a map lookup.
func (g *Graph) EdgeWeight(k int) float64 {
	if g.w == nil {
		return 1
	}
	return g.w[k]
}
