package core

import (
	"math/rand"
	"testing"
)

func TestMesh2D(t *testing.T) {
	g, err := Mesh2D(3, 4)
	if err != nil {
		t.Fatalf("Mesh2D: %v", err)
	}
	if g.NumNodes() != 12 {
		t.Fatalf("NumNodes = %d, want 12", g.NumNodes())
	}
	// Undirected mesh edge count: rows*(cols-1) + cols*(rows-1), doubled for
	// the two directions.
	want := 2 * (3*3 + 4*2)
	if g.NumEdges() != want {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// Corner node 0 talks to right neighbour 1 and down neighbour 4 only.
	if g.Degree(0) != 4 { // 2 neighbours x 2 directions
		t.Fatalf("corner degree = %d, want 4", g.Degree(0))
	}
	// Interior node (1,1) = 5 has 4 neighbours.
	if g.Degree(5) != 8 {
		t.Fatalf("interior degree = %d, want 8", g.Degree(5))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestMesh2DErrors(t *testing.T) {
	if _, err := Mesh2D(0, 4); err == nil {
		t.Fatal("Mesh2D(0,4) accepted")
	}
	if _, err := Mesh2D(3, -1); err == nil {
		t.Fatal("Mesh2D(3,-1) accepted")
	}
}

func TestMesh3D(t *testing.T) {
	g, err := Mesh3D(2, 3, 4)
	if err != nil {
		t.Fatalf("Mesh3D: %v", err)
	}
	if g.NumNodes() != 24 {
		t.Fatalf("NumNodes = %d, want 24", g.NumNodes())
	}
	// Undirected edges: (x-1)yz + x(y-1)z + xy(z-1) = 12+16+18 = 46, doubled.
	if g.NumEdges() != 92 {
		t.Fatalf("NumEdges = %d, want 92", g.NumEdges())
	}
}

func TestAggregationTree(t *testing.T) {
	g, err := AggregationTree(3, 2)
	if err != nil {
		t.Fatalf("AggregationTree: %v", err)
	}
	if g.NumNodes() != 1+3+9 {
		t.Fatalf("NumNodes = %d, want 13", g.NumNodes())
	}
	if g.NumEdges() != 12 {
		t.Fatalf("NumEdges = %d, want 12", g.NumEdges())
	}
	// Root has in-degree 3 (its children) and out-degree 0.
	if g.InDegree(0) != 3 || g.OutDegree(0) != 0 {
		t.Fatalf("root degrees in=%d out=%d, want 3,0", g.InDegree(0), g.OutDegree(0))
	}
	if !g.IsDAG() {
		t.Fatal("aggregation tree is not a DAG")
	}
}

func TestAggregationTreeDepthZero(t *testing.T) {
	g, err := AggregationTree(4, 0)
	if err != nil {
		t.Fatalf("AggregationTree: %v", err)
	}
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges, want 1,0", g.NumNodes(), g.NumEdges())
	}
}

func TestBipartite(t *testing.T) {
	g, err := Bipartite(2, 3)
	if err != nil {
		t.Fatalf("Bipartite: %v", err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 2*2*3 {
		t.Fatalf("NumEdges = %d, want 12", g.NumEdges())
	}
	// No edge within a side.
	if g.HasEdge(0, 1) || g.HasEdge(2, 3) {
		t.Fatal("edge within one side of the bipartition")
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("missing cross edge")
	}
}

func TestRing(t *testing.T) {
	g, err := Ring(5)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if g.IsDAG() {
		t.Fatal("ring should be cyclic")
	}
	if _, err := Ring(2); err == nil {
		t.Fatal("Ring(2) accepted")
	}
}

func TestTwoLevelAggregation(t *testing.T) {
	g, err := TwoLevelAggregation(3, 9)
	if err != nil {
		t.Fatalf("TwoLevelAggregation: %v", err)
	}
	if g.NumNodes() != 13 {
		t.Fatalf("NumNodes = %d, want 13", g.NumNodes())
	}
	if g.InDegree(0) != 3 {
		t.Fatalf("root in-degree = %d, want 3", g.InDegree(0))
	}
	// Each aggregator gets 3 leaves.
	for m := 1; m <= 3; m++ {
		if g.InDegree(m) != 3 {
			t.Fatalf("aggregator %d in-degree = %d, want 3", m, g.InDegree(m))
		}
	}
	if !g.IsDAG() {
		t.Fatal("two-level aggregation is not a DAG")
	}
}

// TestCliqueAndRandomDAGSizes checks that RandomDAG at p = 1 is the
// acyclic clique: every one of the n(n-1)/2 forward edges.
func TestCliqueAndRandomDAGSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := RandomDAG(10, 1.0, rng)
	if err != nil {
		t.Fatalf("RandomDAG: %v", err)
	}
	if d.NumEdges() != 45 {
		t.Fatalf("p=1 DAG edges = %d, want 45", d.NumEdges())
	}
}
