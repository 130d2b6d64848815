package cp

import (
	"math/rand"
	"testing"

	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
)

// randomTinyProblem builds a random LLNDP instance small enough to brute
// force: n in [3,7] nodes, m in [n, n+3] instances, a random directed
// communication graph, and integer costs drawn from a handful of values so
// the threshold ladder is full of ties. Weighted instances scatter weights
// from {0.5, 2, 3} over roughly half the edges.
func randomTinyProblem(t *testing.T, rng *rand.Rand, weighted bool) *solver.Problem {
	t.Helper()
	n := 3 + rng.Intn(5)
	m := n + rng.Intn(4)
	g := core.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.4 {
				if err := g.AddEdge(i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if g.NumEdges() == 0 {
		if err := g.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if weighted {
		choices := []float64{0.5, 2, 3}
		for _, e := range g.Edges() {
			if rng.Float64() < 0.5 {
				if err := g.SetWeight(e.From, e.To, choices[rng.Intn(len(choices))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cm := core.NewCostMatrix(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				cm.Set(i, j, float64(1+rng.Intn(5)))
			}
		}
	}
	p, err := solver.NewProblem(g, cm, solver.LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCPMatchesExhaustiveRandom is the CP-vs-exhaustive optimality property
// test: on random tiny instances — weighted and unweighted — the CP solver
// must prove optimality and land exactly on the brute-force optimum.
func TestCPMatchesExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 24; trial++ {
		weighted := trial%2 == 1
		p := randomTinyProblem(t, rng, weighted)
		want := bruteForceLL(p)
		res, err := New(0, int64(trial)).Solve(p, solver.Budget{Nodes: 20_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Deployment.Validate(p.NumInstances()); err != nil {
			t.Fatalf("trial %d (weighted=%v): invalid deployment: %v", trial, weighted, err)
		}
		if !res.Optimal {
			t.Fatalf("trial %d (weighted=%v): optimality not proven", trial, weighted)
		}
		if res.Cost != want {
			t.Fatalf("trial %d (weighted=%v): CP optimum %g != brute force %g",
				trial, weighted, res.Cost, want)
		}
	}
}

// TestDescentEmbeddingsFitThreshold descends the full threshold ladder and
// requires every found embedding to be a valid deployment that actually fits
// under its threshold.
func TestDescentEmbeddingsFitThreshold(t *testing.T) {
	g, err := core.Mesh2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 12, solver.LongestLink, 31)
	if err != nil {
		t.Fatal(err)
	}
	search, pairs, err := cluster.RoundCostMatrixPairs(p.Costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	thresholds := distinctCosts(pairs)
	d := newDescent(p, pairs, true)
	clock := solver.NewClock(solver.Budget{})
	found := 0
	for idx := len(thresholds) - 1; idx >= 0; idx-- {
		c := thresholds[idx]
		ok, dep, _ := d.feasible(c, clock)
		if !ok {
			continue
		}
		if err := dep.Validate(p.NumInstances()); err != nil {
			t.Fatalf("threshold %g: invalid deployment: %v", c, err)
		}
		if got := core.LongestLink(dep, p.Graph, search); got > c {
			t.Fatalf("threshold %g: embedding cost %g exceeds threshold", c, got)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no threshold was feasible")
	}
}

// TestWeightedThresholdsSortCompact checks the sort+compact ladder against a
// map-based reference.
func TestWeightedThresholdsSortCompact(t *testing.T) {
	g := core.NewGraph(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetWeight(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	raw := []float64{1, 2, 3, 4}
	got := weightedThresholds(raw, g)
	seen := map[float64]bool{}
	for _, w := range g.DistinctWeights() {
		for _, v := range raw {
			seen[w*v] = true
		}
	}
	if len(got) != len(seen) {
		t.Fatalf("got %d thresholds, want %d distinct", len(got), len(seen))
	}
	for i, v := range got {
		if !seen[v] {
			t.Fatalf("unexpected threshold %g", v)
		}
		if i > 0 && got[i-1] >= v {
			t.Fatalf("thresholds not strictly increasing: %v", got)
		}
	}
}
