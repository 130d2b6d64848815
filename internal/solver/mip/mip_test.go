package mip

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
)

func TestFindsPlantedLLOptimum(t *testing.T) {
	p, optCeil, err := solvertest.PlantedLL(2, 3, 3, 0.1, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(0, 2).Solve(p, solver.Budget{Nodes: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatal(err)
	}
	if res.Cost > optCeil {
		t.Fatalf("cost %g, want <= %g", res.Cost, optCeil)
	}
	if !res.Optimal {
		t.Fatal("optimality not proven on a tiny instance")
	}
}

func TestFindsPlantedLPOptimum(t *testing.T) {
	p, optCeil, err := solvertest.PlantedLP(5, 3, 0.1, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(0, 4).Solve(p, solver.Budget{Nodes: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > optCeil {
		t.Fatalf("LP cost %g, want <= %g", res.Cost, optCeil)
	}
	if !res.Optimal {
		t.Fatal("optimality not proven")
	}
}

func TestMatchesBruteForceLL(t *testing.T) {
	g, err := core.Mesh2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 6, solver.LongestLink, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(0, 6).Solve(p, solver.Budget{Nodes: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(p)
	if !res.Optimal || res.Cost != want {
		t.Fatalf("MIP %g (optimal=%v) != brute force %g", res.Cost, res.Optimal, want)
	}
}

func TestMatchesBruteForceLP(t *testing.T) {
	g, err := core.TwoLevelAggregation(2, 3) // 6 nodes
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 7, solver.LongestPath, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(0, 8).Solve(p, solver.Budget{Nodes: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(p)
	if !res.Optimal || res.Cost != want {
		t.Fatalf("MIP %g (optimal=%v) != brute force %g", res.Cost, res.Optimal, want)
	}
}

func bruteForce(p *solver.Problem) float64 {
	n, s := p.NumNodes(), p.NumInstances()
	d := make(core.Deployment, n)
	used := make([]bool, s)
	best := -1.0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			c := p.Cost(d)
			if best < 0 || c < best {
				best = c
			}
			return
		}
		for j := 0; j < s; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			d[i] = j
			rec(i + 1)
			used[j] = false
		}
	}
	rec(0)
	return best
}

func TestBudgetTruncationStillValid(t *testing.T) {
	g, err := core.Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 20, solver.LongestLink, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(0, 10).Solve(p, solver.Budget{Nodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("claimed optimality under 500-node budget")
	}
}

func TestClusteringDoesNotBreakLP(t *testing.T) {
	p, _, err := solvertest.PlantedLP(5, 3, 0.1, 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(5, 12).Solve(p, solver.Budget{Nodes: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatal(err)
	}
	// Reported cost must be under the original matrix.
	if got := p.Cost(res.Deployment); got != res.Cost {
		t.Fatalf("reported %g, actual %g", res.Cost, got)
	}
}

func TestTraceMonotone(t *testing.T) {
	g, err := core.Mesh2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 12, solver.LongestLink, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(0, 14).Solve(p, solver.Budget{Nodes: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Cost > res.Trace[i-1].Cost+1e-12 {
			t.Fatalf("trace not monotone: %v", res.Trace)
		}
	}
}

func TestNames(t *testing.T) {
	if New(0, 1).Name() != "MIP" {
		t.Fatal("name")
	}
	if New(20, 1).Name() != "MIP(k=20)" {
		t.Fatal("clustered name")
	}
}

// TestResultsPinned pins MIP's deployment, cost, node count and optimality
// claim on one longest-link and one longest-path problem, clustered (k=20)
// and not, to the values recorded when the degree order and the transposed
// search structures still came from the shared Prep. The aggregation tree
// has more sources than sinks, so its search runs on the transposed branch.
func TestResultsPinned(t *testing.T) {
	mesh, err := core.Mesh2D(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.AggregationTree(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		g         *core.Graph
		obj       solver.Objective
		instances int
		budget    int64
		k         int
		dep       core.Deployment
		cost      float64
		nodes     int64
		optimal   bool
	}{
		{"mesh/k=20", mesh, solver.LongestLink, 8, 20_000_000, 20,
			core.Deployment{4, 2, 6, 0, 3, 5}, 0.4723360756163745, 446208, false},
		{"mesh/k=0", mesh, solver.LongestLink, 8, 20_000_000, 0,
			core.Deployment{4, 2, 6, 0, 3, 5}, 0.4723360756163745, 621824, true},
		{"tree/k=20", tree, solver.LongestPath, 15, 200_000, 20,
			core.Deployment{2, 9, 3, 8, 4, 0, 14, 13, 6, 5, 11, 10, 12}, 0.8598394010680168, 200_000, false},
		{"tree/k=0", tree, solver.LongestPath, 15, 200_000, 0,
			core.Deployment{0, 12, 4, 2, 10, 13, 5, 6, 11, 9, 8, 3, 14}, 0.8626783251139041, 200_000, false},
	} {
		p, err := solvertest.Realistic(c.g, c.instances, c.obj, 21)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(c.k, 22).Solve(p, solver.Budget{Nodes: c.budget})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(res.Deployment, c.dep) || res.Cost != c.cost || res.Nodes != c.nodes || res.Optimal != c.optimal {
			t.Errorf("%s: got %v cost %v nodes %d optimal %v, want %v cost %v nodes %d optimal %v",
				c.name, res.Deployment, res.Cost, res.Nodes, res.Optimal, c.dep, c.cost, c.nodes, c.optimal)
		}
	}
}

// TestTransposedMatchesDirect checks the transposed longest-path search a
// solve builds when the graph has more sources than sinks: every edge
// reversed with its weight, a topological order of the reversed graph, and
// a transposed matrix under which every deployment's longest path costs
// what it does on the original problem (up to summation order), clustered
// or not.
func TestTransposedMatchesDirect(t *testing.T) {
	g, err := core.AggregationTree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range g.Edges() {
		if err := g.SetWeight(e.From, e.To, 1+float64(k%3)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := solvertest.Realistic(g, 18, solver.LongestPath, 5)
	if err != nil {
		t.Fatal(err)
	}
	if countSources(g) <= countSinks(g) {
		t.Fatal("aggregation tree should have more sources than sinks")
	}
	for _, k := range []int{0, 4} {
		search := p.Costs
		if k > 0 {
			if search, _, err = p.Prep().Rounded(k); err != nil {
				t.Fatal(err)
			}
		}
		tg, tm, order, err := transposed(g, search)
		if err != nil {
			t.Fatal(err)
		}
		if tg.NumNodes() != g.NumNodes() || tg.NumEdges() != g.NumEdges() {
			t.Fatal("transposed graph shape mismatch")
		}
		for _, e := range g.Edges() {
			if !tg.HasEdge(e.To, e.From) || tg.Weight(e.To, e.From) != g.Weight(e.From, e.To) {
				t.Fatalf("edge (%d,%d) not reversed with its weight", e.From, e.To)
			}
		}
		pos := make([]int, len(order))
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range tg.Edges() {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("order puts %d after its successor %d", e.From, e.To)
			}
		}
		for i := 0; i < tm.Size(); i++ {
			for j := 0; j < tm.Size(); j++ {
				if tm.At(i, j) != search.At(j, i) {
					t.Fatalf("k=%d: transposed matrix wrong at (%d,%d)", k, i, j)
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 20; trial++ {
			d := core.Deployment(rng.Perm(p.NumInstances())[:g.NumNodes()])
			want := core.LongestPathWithOrder(d, g, search, p.TopoOrder())
			// Equal up to summation order: the reversed path adds the
			// same link costs from the other end.
			if got := core.LongestPathWithOrder(d, tg, tm, order); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("k=%d: transposed path cost %v, original %v", k, got, want)
			}
		}
	}
}

// TestDegreeOrder: the LLNDP branching order is the nodes by descending
// total degree, ties in node order.
func TestDegreeOrder(t *testing.T) {
	g := core.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {2, 1}, {3, 1}, {3, 4}, {5, 3}, {4, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Degrees: 0:1 1:3 2:2 3:3 4:2 5:1.
	if got, want := degreeOrder(g), []core.NodeID{1, 3, 2, 4, 0, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("degreeOrder = %v, want %v", got, want)
	}
}
