package greedy

import (
	"slices"
	"testing"
	"time"

	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
)

func TestNames(t *testing.T) {
	if New(G1).Name() != "G1" || New(G2).Name() != "G2" {
		t.Fatal("names wrong")
	}
}

func solveValid(t *testing.T, s solver.Solver, p *solver.Problem) *solver.Result {
	t.Helper()
	res, err := s.Solve(p, solver.Budget{Nodes: 1_000_000})
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatalf("%s produced invalid deployment: %v", s.Name(), err)
	}
	if len(res.Deployment) != p.NumNodes() {
		t.Fatalf("%s deployed %d nodes, want %d", s.Name(), len(res.Deployment), p.NumNodes())
	}
	if got := p.Cost(res.Deployment); got != res.Cost {
		t.Fatalf("%s reported cost %g, actual %g", s.Name(), res.Cost, got)
	}
	return res
}

func TestGreedyOnPlantedInstance(t *testing.T) {
	p, optCeil, err := solvertest.PlantedLL(3, 3, 3, 0.1, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{G1, G2} {
		res := solveValid(t, New(v), p)
		// Greedy follows cheap links, so on a planted instance it should
		// stay inside the clique.
		if res.Cost > optCeil {
			t.Errorf("%s cost %g, want <= %g (stuck outside planted clique)", New(v).Name(), res.Cost, optCeil)
		}
	}
}

func TestG2NoWorseThanG1OnRealistic(t *testing.T) {
	// The paper reports G2 improving on G1 significantly (Fig. 14). On any
	// single instance G2 may tie; across several seeds its mean must be at
	// least as good.
	g, err := core.Mesh2D(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sum1, sum2 float64
	for seed := int64(0); seed < 5; seed++ {
		p, err := solvertest.Realistic(g, 28, solver.LongestLink, seed*31+1)
		if err != nil {
			t.Fatal(err)
		}
		sum1 += solveValid(t, New(G1), p).Cost
		sum2 += solveValid(t, New(G2), p).Cost
	}
	if sum2 > sum1*1.02 {
		t.Fatalf("G2 mean cost %.4f worse than G1 %.4f across seeds", sum2/5, sum1/5)
	}
}

func TestGreedyHandlesDisconnectedGraph(t *testing.T) {
	// Two disjoint edges plus an isolated node.
	g := core.NewGraph(5)
	for _, e := range [][2]int{{0, 1}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := solvertest.Realistic(g, 8, solver.LongestLink, 3)
	_ = p
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{G1, G2} {
		solveValid(t, New(v), p)
	}
}

func TestGreedyHandlesEdgelessGraph(t *testing.T) {
	g := core.NewGraph(4)
	p, err := solvertest.Realistic(g, 6, solver.LongestLink, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{G1, G2} {
		res := solveValid(t, New(v), p)
		if res.Cost != 0 {
			t.Fatalf("%s cost %g on edgeless graph, want 0", New(v).Name(), res.Cost)
		}
	}
}

func TestGreedyLPHeuristic(t *testing.T) {
	// Sect. 4.5.2: greedy solves LLNDP structure but is usable on LPNDP
	// problems as a heuristic; the result must simply be valid.
	g, err := core.TwoLevelAggregation(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 15, solver.LongestPath, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{G1, G2} {
		res := solveValid(t, New(v), p)
		if res.Cost <= 0 {
			t.Fatalf("%s LP cost %g, want positive", New(v).Name(), res.Cost)
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	g, err := core.Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 20, solver.LongestLink, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{G1, G2} {
		a := solveValid(t, New(v), p)
		b := solveValid(t, New(v), p)
		for i := range a.Deployment {
			if a.Deployment[i] != b.Deployment[i] {
				t.Fatalf("%s not deterministic", New(v).Name())
			}
		}
	}
}

func TestGreedySingleEdgeGraph(t *testing.T) {
	g := core.NewGraph(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 5, solver.LongestLink, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{G1, G2} {
		res := solveValid(t, New(v), p)
		// The single edge must land on the globally cheapest link.
		min := slices.Min(p.Costs.OffDiagonal())
		if res.Cost != min {
			t.Fatalf("%s cost %g, want cheapest link %g", New(v).Name(), res.Cost, min)
		}
	}
}

// A nearly-spent time budget must trigger the cheap completion: the solver
// still returns a complete valid deployment, and a generous time budget
// produces the same deployment as an untimed run (the fallback never fires).
func TestGreedyTimeBudgetFallback(t *testing.T) {
	g, err := core.Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 24, solver.LongestLink, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{G1, G2} {
		s := New(v)
		// A 1ns budget is spent before the first step: everything beyond the
		// seed placement goes through completeCheap.
		res, err := s.Solve(p, solver.Budget{Time: time.Nanosecond})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := res.Deployment.Validate(p.NumInstances()); err != nil {
			t.Fatalf("%s fallback produced invalid deployment: %v", s.Name(), err)
		}
		if len(res.Deployment) != p.NumNodes() {
			t.Fatalf("%s fallback deployed %d nodes, want %d", s.Name(), len(res.Deployment), p.NumNodes())
		}
		if got := p.Cost(res.Deployment); got != res.Cost {
			t.Fatalf("%s fallback reported cost %g, actual %g", s.Name(), res.Cost, got)
		}

		// With hours of budget the clock checks pass and the run matches the
		// node-budgeted (untimed) construction exactly.
		slow, err := s.Solve(p, solver.Budget{Time: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		want := solveValid(t, s, p)
		for i := range want.Deployment {
			if slow.Deployment[i] != want.Deployment[i] {
				t.Fatalf("%s with generous time budget diverged from untimed run", s.Name())
			}
		}
	}
}
