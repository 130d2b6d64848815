package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := NewGraph(5)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdge(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("HasEdge(0,1) = false after AddEdge")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("HasEdge(1,0) = true; edges are directed")
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 {
		t.Fatalf("degrees: out(0)=%d in(1)=%d, want 1,1", g.OutDegree(0), g.InDegree(1))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(-1, 1); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestAddBiEdge(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddBiEdge(0, 1); err != nil {
		t.Fatalf("AddBiEdge: %v", err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("AddBiEdge did not add both directions")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestClone(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	c := g.Clone()
	mustEdge(t, c, 2, 3)
	if g.HasEdge(2, 3) {
		t.Fatal("mutating clone affected original")
	}
	if c.NumEdges() != 3 || g.NumEdges() != 2 {
		t.Fatalf("edge counts: clone %d orig %d, want 3,2", c.NumEdges(), g.NumEdges())
	}
}

func TestTopoOrderDAG(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 3)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[NodeID]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge (%d,%d) violates topo order %v", e.From, e.To, order)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 0)
	if _, err := g.TopoOrder(); err != ErrCyclic {
		t.Fatalf("TopoOrder on cycle: err = %v, want ErrCyclic", err)
	}
	if g.IsDAG() {
		t.Fatal("IsDAG = true for a cycle")
	}
}

func TestTopoOrderIsolatedNodes(t *testing.T) {
	g := NewGraph(3) // no edges at all
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	if len(order) != 3 {
		t.Fatalf("order covers %d nodes, want 3", len(order))
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(g *Graph)
	}{
		{"adjacency", func(g *Graph) { g.adjacency().outNbr[0] = 2 }},
		{"index", func(g *Graph) { g.index[Edge{0, 1}] = 1 }},
		{"edge range", func(g *Graph) { g.edges[1] = Edge{1, 3} }},
		{"weights", func(g *Graph) { g.w = []float64{1} }},
	}
	for _, c := range corruptions {
		g := NewGraph(3)
		mustEdge(t, g, 0, 1)
		mustEdge(t, g, 1, 2)
		c.corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted a corrupted %s", c.name)
		}
	}
}

// Property: a random DAG always topologically sorts, and every edge respects
// the order.
func TestRandomDAGProperty(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		n := int(rawN%30) + 1
		p := float64(rawP) / 255
		rng := rand.New(rand.NewSource(seed))
		g, err := RandomDAG(n, p, rng)
		if err != nil {
			return false
		}
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func mustEdge(t *testing.T, g *Graph, from, to NodeID) {
	t.Helper()
	if err := g.AddEdge(from, to); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", from, to, err)
	}
}

func TestIncidenceCaches(t *testing.T) {
	g := NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Edge ids follow insertion order: 0:(0,1) 1:(1,2) 2:(2,0) 3:(0,3).
	wantIncident := map[int][]int32{0: {0, 2, 3}, 1: {0, 1}, 2: {1, 2}, 3: {3}}
	for v, want := range wantIncident {
		got := g.IncidentEdgeIDs(v)
		if len(got) != len(want) {
			t.Fatalf("IncidentEdgeIDs(%d) = %v, want %v", v, got, want)
		}
		seen := map[int32]bool{}
		for _, k := range got {
			seen[k] = true
		}
		for _, k := range want {
			if !seen[k] {
				t.Fatalf("IncidentEdgeIDs(%d) = %v, missing edge %d", v, got, k)
			}
		}
	}
	if got := g.InEdgeIDs(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("InEdgeIDs(0) = %v, want [2]", got)
	}
	// AddEdge must drop the built view.
	if err := g.AddEdge(3, 1); err != nil {
		t.Fatal(err)
	}
	if got := g.InEdgeIDs(1); len(got) != 2 {
		t.Fatalf("InEdgeIDs(1) after AddEdge = %v, want two edges", got)
	}
}

func TestEdgeWeightByIndex(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if w := g.EdgeWeight(0); w != 1 {
		t.Fatalf("EdgeWeight(0) = %g, want 1 (unweighted)", w)
	}
	if err := g.SetWeight(1, 2, 2.5); err != nil {
		t.Fatal(err)
	}
	if w := g.EdgeWeight(1); w != 2.5 {
		t.Fatalf("EdgeWeight(1) = %g, want 2.5", w)
	}
	if w := g.EdgeWeight(0); w != 1 {
		t.Fatalf("EdgeWeight(0) = %g, want 1", w)
	}
}

// EnsureIncidence must be safe under concurrent first use: the serving
// layer submits many jobs sharing one finished graph from multiple
// goroutines. Run under -race.
func TestEnsureIncidenceConcurrent(t *testing.T) {
	g, err := Mesh2D(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < g.NumNodes(); v++ {
				if len(g.IncidentEdgeIDs(v)) == 0 {
					t.Errorf("node %d reports no incident edges", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A later AddEdge invalidates and rebuilds on next use.
	if err := g.AddEdge(0, 7); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range g.IncidentEdgeIDs(7) {
		e := g.Edges()[k]
		if e.From == 0 && e.To == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("adjacency view not rebuilt after AddEdge")
	}
}

// buildMeshView is the cold build the CLI's streaming run times: a 15 x 20
// mesh and its adjacency view, which the first Out builds.
func buildMeshView() *Graph {
	g, err := Mesh2D(15, 20)
	if err != nil {
		panic(err)
	}
	g.Out(0)
	return g
}

// Building a graph allocates a fixed handful of objects, not one or more
// per node or per edge: the 300-node, 1,130-edge mesh and its view take 11.
func TestGraphBuildAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, func() { buildMeshView() }); allocs > 20 {
		t.Fatalf("Mesh2D(15, 20) and its view allocate %v objects, want at most 20", allocs)
	}
}

var graphSink *Graph

func BenchmarkGraphBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphSink = buildMeshView()
	}
}
