package cp

import (
	"reflect"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
)

// pinnedCase is one CP solve whose result TestCPResultsPinned holds fixed.
type pinnedCase struct {
	name      string
	graph     func() (*core.Graph, error)
	instances int
	seed      int64
	k         int
	noFilter  bool
	budget    int64
	dep       core.Deployment
	cost      float64
	nodes     int64
	optimal   bool
	trace     int
}

func pinnedMesh(rows, cols int) func() (*core.Graph, error) {
	return func() (*core.Graph, error) { return core.Mesh2D(rows, cols) }
}

// pinnedWeightedMesh is a 3x3 mesh whose edges carry weights 1, 2 and 3 in
// turn, so CP descends over several weight classes.
func pinnedWeightedMesh() (*core.Graph, error) {
	g, err := core.Mesh2D(3, 3)
	if err != nil {
		return nil, err
	}
	ws := make([]core.EdgeWeight, 0, g.NumEdges())
	for k, e := range g.Edges() {
		ws = append(ws, core.EdgeWeight{From: e.From, To: e.To, W: 1 + float64(k%3)})
	}
	return g, g.SetWeights(ws)
}

var pinnedCases = []pinnedCase{
	{name: "mesh3x3/k=0", graph: pinnedMesh(3, 3), instances: 14, seed: 31, k: 0, budget: 2_000_000,
		dep: core.Deployment{7, 13, 11, 3, 2, 9, 8, 4, 5}, cost: 0.4439263559945897, nodes: 494, optimal: true, trace: 13},
	{name: "mesh3x3/k=5", graph: pinnedMesh(3, 3), instances: 14, seed: 31, k: 5, budget: 2_000_000,
		dep: core.Deployment{4, 13, 11, 8, 2, 9, 7, 3, 5}, cost: 0.4455471653555485, nodes: 241, optimal: false, trace: 4},
	{name: "mesh3x3/k=20", graph: pinnedMesh(3, 3), instances: 14, seed: 31, k: 20, budget: 2_000_000,
		dep: core.Deployment{7, 13, 4, 8, 3, 2, 10, 5, 9}, cost: 0.4455471653555485, nodes: 269, optimal: false, trace: 7},
	{name: "mesh5x5/k=0", graph: pinnedMesh(5, 5), instances: 60, seed: 32, k: 0, budget: 60_000,
		dep: core.Deployment{48, 16, 38, 18, 40, 1, 2, 6, 24, 51, 22, 30, 11, 12, 8, 17, 29, 53, 46, 44, 0, 56, 37, 26, 23}, cost: 0.4307755785834794, nodes: 60000, optimal: false, trace: 53},
	{name: "mesh5x5/k=20", graph: pinnedMesh(5, 5), instances: 60, seed: 32, k: 20, budget: 60_000,
		dep: core.Deployment{51, 29, 26, 33, 2, 13, 30, 53, 1, 38, 28, 22, 6, 41, 11, 46, 12, 37, 17, 0, 55, 52, 16, 56, 43}, cost: 0.4448983093542178, nodes: 60000, optimal: false, trace: 7},
	{name: "mesh5x5/k=5", graph: pinnedMesh(5, 5), instances: 60, seed: 32, k: 5, budget: 60_000,
		dep: core.Deployment{20, 43, 58, 4, 19, 29, 53, 30, 51, 12, 33, 26, 38, 6, 37, 13, 2, 1, 41, 22, 0, 40, 52, 55, 17}, cost: 0.4675892910680483, nodes: 50, optimal: false, trace: 3},
	{name: "weighted3x3/k=0", graph: pinnedWeightedMesh, instances: 14, seed: 33, k: 0, budget: 2_000_000,
		dep: core.Deployment{12, 7, 9, 3, 2, 8, 6, 4, 10}, cost: 1.268928997081364, nodes: 221, optimal: true, trace: 16},
	{name: "weighted3x3/k=20", graph: pinnedWeightedMesh, instances: 14, seed: 33, k: 20, budget: 2_000_000,
		dep: core.Deployment{10, 9, 8, 5, 0, 6, 3, 2, 4}, cost: 1.3202048452644064, nodes: 61, optimal: false, trace: 3},
	{name: "nofilter5x5/k=20", graph: pinnedMesh(5, 5), instances: 60, seed: 32, k: 20, noFilter: true, budget: 60_000,
		dep: core.Deployment{51, 29, 26, 33, 2, 13, 30, 53, 1, 38, 28, 22, 6, 41, 11, 46, 12, 37, 17, 0, 55, 52, 16, 56, 43}, cost: 0.4448983093542178, nodes: 60000, optimal: false, trace: 7},
	{name: "nofilter3x3/k=0", graph: pinnedMesh(3, 3), instances: 14, seed: 31, k: 0, noFilter: true, budget: 2_000_000,
		dep: core.Deployment{7, 13, 11, 3, 2, 9, 8, 4, 5}, cost: 0.4439263559945897, nodes: 500, optimal: true, trace: 13},
}

// TestCPResultsPinned pins CP's deployment, cost, node count, optimality
// claim and trace length, unclustered and at k = 5 and 20, on unweighted
// and weighted meshes and with the root degree filter off, to the values
// recorded while the rounded set was still a float64 matrix plus a
// cost-sorted CostPair list. The class-grouped set must not move any of
// them: clearing a threshold graph's bits is commutative, so the order
// pairs are cleared in cannot change the search.
func TestCPResultsPinned(t *testing.T) {
	for _, c := range pinnedCases {
		g, err := c.graph()
		if err != nil {
			t.Fatal(err)
		}
		p, err := solvertest.Realistic(g, c.instances, solver.LongestLink, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		s := New(c.k, 7)
		s.DisableDegreeFilter = c.noFilter
		res, err := s.Solve(p, solver.Budget{Nodes: c.budget})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(res.Deployment, c.dep) || res.Cost != c.cost || res.Nodes != c.nodes ||
			res.Optimal != c.optimal || len(res.Trace) != c.trace {
			t.Errorf("%s: got %v cost %v nodes %d optimal %v trace %d, want %v cost %v nodes %d optimal %v trace %d",
				c.name, res.Deployment, res.Cost, res.Nodes, res.Optimal, len(res.Trace),
				c.dep, c.cost, c.nodes, c.optimal, c.trace)
		}
	}
}

// TestEngineArenaHubGraph runs CP on hub graphs, whose hub is adjacent to
// every other node, so one assignment can snapshot n-1 neighbour domains:
// the most the degree-sized trail stride allows. The stride must equal the
// hub's degree. At every threshold of the ladder the search must match, in
// verdict, embedding and node count, a twin engine whose trail has the old
// n-slot stride: a depth overflowing its slots would trample the next
// depth's snapshots and restore wrong domains on backtrack. The full solve
// must also prove the brute-force optimum.
func TestEngineArenaHubGraph(t *testing.T) {
	for _, c := range []struct {
		nodes, instances int
		bidirectional    bool
		seed             int64
	}{
		{5, 7, false, 41},
		{6, 8, false, 42},
		{5, 7, true, 43},
		{6, 7, true, 44},
		{8, 9, true, 45},
	} {
		g := core.NewGraph(c.nodes)
		for v := 1; v < c.nodes; v++ {
			edges := [][2]int{{0, v}}
			if c.bidirectional {
				edges = append(edges, [2]int{v, 0})
			}
			if v+1 < c.nodes {
				edges = append(edges, [2]int{v, v + 1}) // a path on the leaves
			}
			for _, e := range edges {
				if err := g.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		p, err := solvertest.Realistic(g, c.instances, solver.LongestLink, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		set, err := p.Prep().RoundedSet(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, filter := range []bool{true, false} {
			d, wide := newDescent(p, set, filter), newDescent(p, set, filter)
			if d.eng.snapStride != g.Degree(0) {
				t.Fatalf("%d nodes: trail stride %d, want the hub's degree %d", c.nodes, d.eng.snapStride, g.Degree(0))
			}
			n := wide.n
			wide.eng.snapStride = n
			wide.eng.snapVar = make([]int32, n*n)
			wide.eng.snapSize = make([]int32, n*n)
			wide.eng.snapWords = make([]uint64, n*n*wide.wpd)
			levels := set.Levels()
			for idx := len(levels) - 1; idx >= 0; idx-- {
				clock, wideClock := solver.NewClock(solver.Budget{}), solver.NewClock(solver.Budget{})
				ok, dep, ex := d.feasible(levels[idx], clock)
				wOK, wDep, wEx := wide.feasible(levels[idx], wideClock)
				if ok != wOK || ex != wEx || !reflect.DeepEqual(dep, wDep) || clock.Nodes() != wideClock.Nodes() {
					t.Fatalf("%d nodes (filter %v) c=%g: got ok=%v ex=%v %v in %d nodes, n-slot trail ok=%v ex=%v %v in %d",
						c.nodes, filter, levels[idx], ok, ex, dep, clock.Nodes(), wOK, wEx, wDep, wideClock.Nodes())
				}
			}
		}
		want := bruteForceLL(p)
		res, err := New(0, 5).Solve(p, solver.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal || res.Cost != want {
			t.Fatalf("%d nodes: cost %v optimal %v, brute force %v", c.nodes, res.Cost, res.Optimal, want)
		}
	}
}
