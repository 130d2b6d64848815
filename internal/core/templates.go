package core

import (
	"fmt"
	"math/rand"
)

// This file provides the communication-graph templates that ClouDiA offers
// tenants so they need not hand-write O(|N|^2) link lists (Sect. 3.3):
// meshes for behavioral simulations, aggregation trees for search/portal
// workloads, and bipartite graphs for key-value stores, plus a few generic
// shapes used by tests and ablations.

// Mesh2D returns a rows x cols 2D mesh with bidirectional edges between
// horizontal and vertical neighbours. This is the communication pattern of
// the behavioral simulation workload (Sect. 6.1.1).
func Mesh2D(rows, cols int) (*Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("core: invalid mesh dimensions %dx%d", rows, cols)
	}
	g := newGraph(rows*cols, 2*(rows*(cols-1)+(rows-1)*cols))
	id := func(r, c int) NodeID { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := g.AddBiEdge(id(r, c), id(r, c+1)); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := g.AddBiEdge(id(r, c), id(r+1, c)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Mesh3D returns an x*y*z 3D mesh with bidirectional edges between axis
// neighbours.
func Mesh3D(x, y, z int) (*Graph, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return nil, fmt.Errorf("core: invalid mesh dimensions %dx%dx%d", x, y, z)
	}
	g := newGraph(x*y*z, 2*((x-1)*y*z+x*(y-1)*z+x*y*(z-1)))
	id := func(i, j, k int) NodeID { return (i*y+j)*z + k }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				if i+1 < x {
					if err := g.AddBiEdge(id(i, j, k), id(i+1, j, k)); err != nil {
						return nil, err
					}
				}
				if j+1 < y {
					if err := g.AddBiEdge(id(i, j, k), id(i, j+1, k)); err != nil {
						return nil, err
					}
				}
				if k+1 < z {
					if err := g.AddBiEdge(id(i, j, k), id(i, j, k+1)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return g, nil
}

// AggregationTree returns a complete aggregation tree of the given depth in
// which every internal node has fanout children. Edges point from child to
// parent: results flow leaf -> root, matching the synthetic aggregation
// query workload (Sect. 6.1.2). Node 0 is the root. depth counts edge
// levels, so depth 0 is a single node.
func AggregationTree(fanout, depth int) (*Graph, error) {
	if fanout <= 0 || depth < 0 {
		return nil, fmt.Errorf("core: invalid tree fanout=%d depth=%d", fanout, depth)
	}
	// Total nodes of a complete fanout-ary tree with depth edge levels.
	total := 1
	levelSize := 1
	for d := 0; d < depth; d++ {
		levelSize *= fanout
		total += levelSize
	}
	g := newGraph(total, total-1)
	// Nodes are numbered level by level: root 0, then its children, etc.
	next := 1
	frontier := []NodeID{0}
	for d := 0; d < depth; d++ {
		var newFrontier []NodeID
		for _, parent := range frontier {
			for c := 0; c < fanout; c++ {
				child := next
				next++
				if err := g.AddEdge(child, parent); err != nil {
					return nil, err
				}
				newFrontier = append(newFrontier, child)
			}
		}
		frontier = newFrontier
	}
	return g, nil
}

// Bipartite returns a complete bipartite graph between frontends (nodes
// 0..f-1) and storage nodes (nodes f..f+s-1), with one directed edge each way
// per pair: requests flow frontend -> storage and replies flow back. This is
// the key-value store communication pattern (Sect. 6.1.3).
func Bipartite(frontends, storage int) (*Graph, error) {
	if frontends <= 0 || storage <= 0 {
		return nil, fmt.Errorf("core: invalid bipartite sizes f=%d s=%d", frontends, storage)
	}
	g := newGraph(frontends+storage, 2*frontends*storage)
	for f := 0; f < frontends; f++ {
		for s := 0; s < storage; s++ {
			if err := g.AddBiEdge(f, frontends+s); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Ring returns a directed ring over n nodes: 0->1->...->n-1->0.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: ring needs >= 3 nodes, got %d", n)
	}
	g := newGraph(n, n)
	for v := 0; v < n; v++ {
		if err := g.AddEdge(v, (v+1)%n); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// RandomDAG returns a random DAG over n nodes in which each forward pair
// (i, j), i < j, is an edge with probability p, using rng for randomness.
// Edges always point from lower to higher node index, so the result is
// acyclic by construction.
func RandomDAG(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: invalid DAG size %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("core: invalid edge probability %g", p)
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := g.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// TwoLevelAggregation returns the two-level aggregation tree used by the
// paper's top-k query workload: one root, mid intermediate aggregators, and
// leaves leaf nodes distributed round-robin under the aggregators. Edges
// point child -> parent. Node 0 is the root, nodes 1..mid are aggregators,
// and the remaining nodes are leaves.
func TwoLevelAggregation(mid, leaves int) (*Graph, error) {
	if mid <= 0 || leaves < mid {
		return nil, fmt.Errorf("core: invalid two-level tree mid=%d leaves=%d", mid, leaves)
	}
	g := newGraph(1+mid+leaves, mid+leaves)
	for m := 0; m < mid; m++ {
		if err := g.AddEdge(1+m, 0); err != nil {
			return nil, err
		}
	}
	for l := 0; l < leaves; l++ {
		parent := 1 + l%mid
		if err := g.AddEdge(1+mid+l, parent); err != nil {
			return nil, err
		}
	}
	return g, nil
}
