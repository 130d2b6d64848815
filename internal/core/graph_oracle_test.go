package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// oracleGraph is the adjacency builder Graph used before it derived every
// per-node list from its edge list: per-node out and in slices appended
// edge by edge, an edge set, a weight map, and incidence lists built in one
// pass over the edges. The tests below check Graph's accessors against it.
type oracleGraph struct {
	n       int
	out, in [][]NodeID
	edges   []Edge
	has     map[Edge]bool
	weights map[Edge]float64
}

func newOracle(n int) *oracleGraph {
	return &oracleGraph{n: n, out: make([][]NodeID, n), in: make([][]NodeID, n), has: map[Edge]bool{}, weights: map[Edge]float64{}}
}

// oracleOf replays g's edges and weights into a fresh oracle.
func oracleOf(t *testing.T, g *Graph) *oracleGraph {
	t.Helper()
	o := newOracle(g.NumNodes())
	for _, e := range g.Edges() {
		if err := o.addEdge(e.From, e.To); err != nil {
			t.Fatal(err)
		}
		if w := g.Weight(e.From, e.To); w != 1 {
			o.weights[e] = w
		}
	}
	return o
}

func (o *oracleGraph) addEdge(from, to NodeID) error {
	if from < 0 || from >= o.n || to < 0 || to >= o.n || from == to || o.has[Edge{from, to}] {
		return fmt.Errorf("oracle: edge (%d,%d) refused", from, to)
	}
	e := Edge{from, to}
	o.has[e] = true
	o.out[from] = append(o.out[from], to)
	o.in[to] = append(o.in[to], from)
	o.edges = append(o.edges, e)
	return nil
}

func (o *oracleGraph) setWeights(ws []EdgeWeight) error {
	for _, ew := range ws {
		if !(ew.W > 0) || !o.has[Edge{ew.From, ew.To}] {
			return fmt.Errorf("oracle: weight %g on (%d,%d) refused", ew.W, ew.From, ew.To)
		}
	}
	for _, ew := range ws {
		if ew.W == 1 {
			delete(o.weights, Edge{ew.From, ew.To})
		} else {
			o.weights[Edge{ew.From, ew.To}] = ew.W
		}
	}
	return nil
}

func (o *oracleGraph) weight(from, to NodeID) float64 {
	if w, ok := o.weights[Edge{from, to}]; ok {
		return w
	}
	return 1
}

func (o *oracleGraph) incidence() (incident, inIdx [][]int32) {
	incident = make([][]int32, o.n)
	inIdx = make([][]int32, o.n)
	for k, e := range o.edges {
		incident[e.From] = append(incident[e.From], int32(k))
		incident[e.To] = append(incident[e.To], int32(k))
		inIdx[e.To] = append(inIdx[e.To], int32(k))
	}
	return incident, inIdx
}

func (o *oracleGraph) distinctWeights() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, e := range o.edges {
		w := o.weight(e.From, e.To)
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func (o *oracleGraph) topoOrder() ([]NodeID, error) {
	indeg := make([]int, o.n)
	for v := 0; v < o.n; v++ {
		indeg[v] = len(o.in[v])
	}
	queue := make([]NodeID, 0, o.n)
	for v := 0; v < o.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]NodeID, 0, o.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range o.out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != o.n {
		return nil, ErrCyclic
	}
	return order, nil
}

// transposed returns the oracle of the reversed graph, weights carried.
func (o *oracleGraph) transposed() *oracleGraph {
	r := newOracle(o.n)
	for _, e := range o.edges {
		if err := r.addEdge(e.To, e.From); err != nil {
			panic(err)
		}
	}
	for e, w := range o.weights {
		r.weights[Edge{e.To, e.From}] = w
	}
	return r
}

// checkOracle fails t unless every read accessor of g agrees with o.
func checkOracle(t *testing.T, g *Graph, o *oracleGraph) {
	t.Helper()
	if g.NumNodes() != o.n || !slices.Equal(g.Edges(), o.edges) {
		t.Fatalf("graph has %d nodes and edges %v, oracle %d and %v", g.NumNodes(), g.Edges(), o.n, o.edges)
	}
	if g.Weighted() != (len(o.weights) > 0) {
		t.Fatalf("Weighted() = %v with %d weights set", g.Weighted(), len(o.weights))
	}
	incident, inIdx := o.incidence()
	for v := 0; v < o.n; v++ {
		if !slices.Equal(g.Out(v), o.out[v]) || !slices.Equal(g.In(v), o.in[v]) {
			t.Fatalf("node %d: Out %v In %v, oracle %v and %v", v, g.Out(v), g.In(v), o.out[v], o.in[v])
		}
		if g.OutDegree(v) != len(o.out[v]) || g.InDegree(v) != len(o.in[v]) || g.Degree(v) != len(o.out[v])+len(o.in[v]) {
			t.Fatalf("node %d: degrees %d/%d/%d, oracle out %d in %d", v, g.OutDegree(v), g.InDegree(v), g.Degree(v), len(o.out[v]), len(o.in[v]))
		}
		if !slices.Equal(g.IncidentEdgeIDs(v), incident[v]) || !slices.Equal(g.InEdgeIDs(v), inIdx[v]) {
			t.Fatalf("node %d: IncidentEdgeIDs %v InEdgeIDs %v, oracle %v and %v", v, g.IncidentEdgeIDs(v), g.InEdgeIDs(v), incident[v], inIdx[v])
		}
		// The longest-path evaluation weighs out-slot j by its edge id.
		a := g.adjacency()
		for k, w := range o.out[v] {
			if got, want := g.EdgeWeight(int(a.outEid[int(a.outOff[v])+k])), o.weight(v, w); got != want {
				t.Fatalf("weight of out-slot %d of node %d = %g, oracle %g", k, v, got, want)
			}
		}
	}
	for k, e := range o.edges {
		want := o.weight(e.From, e.To)
		if g.EdgeWeight(k) != want || g.Weight(e.From, e.To) != want || !g.HasEdge(e.From, e.To) {
			t.Fatalf("edge %d %v: weights %g/%g, oracle %g", k, e, g.EdgeWeight(k), g.Weight(e.From, e.To), want)
		}
	}
	if o.n <= 64 {
		for i := 0; i < o.n; i++ {
			for j := 0; j < o.n; j++ {
				if g.HasEdge(i, j) != o.has[Edge{i, j}] || g.Weight(i, j) != o.weight(i, j) {
					t.Fatalf("pair (%d,%d): HasEdge %v Weight %g, oracle %v and %g", i, j, g.HasEdge(i, j), g.Weight(i, j), o.has[Edge{i, j}], o.weight(i, j))
				}
			}
		}
	}
	if got, want := g.DistinctWeights(), o.distinctWeights(); !slices.Equal(got, want) {
		t.Fatalf("DistinctWeights = %v, oracle %v", got, want)
	}
	order, err := g.TopoOrder()
	wantOrder, wantErr := o.topoOrder()
	if err != wantErr || !slices.Equal(order, wantOrder) {
		t.Fatalf("TopoOrder = %v, %v; oracle %v, %v", order, err, wantOrder, wantErr)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// randomWeights returns up to four weight entries on random pairs, some on
// missing edges, some non-positive and some resetting a weight to 1.
func randomWeights(rng *rand.Rand, n int) []EdgeWeight {
	ws := make([]EdgeWeight, 1+rng.Intn(4))
	for i := range ws {
		w := []float64{1, 0.5, 2, 3.25, 7}[rng.Intn(5)]
		if rng.Intn(20) == 0 {
			w = -1
		}
		ws[i] = EdgeWeight{From: rng.Intn(n), To: rng.Intn(n), W: w}
	}
	return ws
}

// Random directed graphs, cyclic or not, built with weights set and every
// accessor read between the mutations: each read builds the view, and the
// next AddEdge must drop it.
func TestGraphMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g, o := NewGraph(n), newOracle(n)
		for step := 0; step < 60; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				from, to := rng.Intn(n+1)-rng.Intn(2), rng.Intn(n)
				if err, want := g.AddEdge(from, to), o.addEdge(from, to); (err == nil) != (want == nil) {
					t.Fatalf("seed %d: AddEdge(%d,%d) = %v, oracle %v", seed, from, to, err, want)
				}
			case r < 8:
				ws := randomWeights(rng, n)
				if err, want := g.SetWeights(ws), o.setWeights(ws); (err == nil) != (want == nil) {
					t.Fatalf("seed %d: SetWeights(%v) = %v, oracle %v", seed, ws, err, want)
				}
			default:
				checkOracle(t, g, o)
			}
		}
		checkOracle(t, g, o)
	}
}

func TestTemplatesMatchOracle(t *testing.T) {
	builds := map[string]func() (*Graph, error){
		"mesh2d":     func() (*Graph, error) { return Mesh2D(4, 5) },
		"mesh2d-row": func() (*Graph, error) { return Mesh2D(1, 6) },
		"mesh3d":     func() (*Graph, error) { return Mesh3D(2, 3, 4) },
		"tree":       func() (*Graph, error) { return AggregationTree(3, 2) },
		"tree-leaf":  func() (*Graph, error) { return AggregationTree(2, 0) },
		"bipartite":  func() (*Graph, error) { return Bipartite(3, 4) },
		"ring":       func() (*Graph, error) { return Ring(7) },
		"dag":        func() (*Graph, error) { return RandomDAG(15, 0.3, rand.New(rand.NewSource(3))) },
		"two-level":  func() (*Graph, error) { return TwoLevelAggregation(3, 10) },
	}
	for _, name := range slices.Sorted(maps.Keys(builds)) {
		g, err := builds[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { checkOracle(t, g, oracleOf(t, g)) })
	}
}

// Clone and Transposed build their edge index and weights directly; both
// must read exactly as the oracle of the copied or reversed edge list, and
// share nothing with the source.
func TestCloneTransposedMatchOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g, o := NewGraph(n), newOracle(n)
		for step := 0; step < 40; step++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if g.AddEdge(from, to) == nil {
				_ = o.addEdge(from, to)
				if rng.Intn(3) == 0 {
					ws := []EdgeWeight{{From: from, To: to, W: 1 + float64(rng.Intn(4))}}
					if err := g.SetWeights(ws); err != nil {
						t.Fatal(err)
					}
					_ = o.setWeights(ws)
				}
			}
		}
		g.EnsureIncidence() // a built view must not leak into the copies
		c, tr := g.Clone(), g.Transposed()
		checkOracle(t, c, o)
		checkOracle(t, tr, o.transposed())
		if g.NumEdges() > 0 {
			e := g.Edges()[0]
			if err := c.SetWeight(e.From, e.To, 9); err != nil {
				t.Fatal(err)
			}
			if err := tr.SetWeight(e.To, e.From, 9); err != nil {
				t.Fatal(err)
			}
		}
		for v := 0; v < n; v++ {
			if c.AddEdge(v, (v+1)%n) == nil {
				break
			}
		}
		checkOracle(t, g, o)
	}
}
