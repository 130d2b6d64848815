package random

import (
	"testing"
	"time"

	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
)

func TestR1Validation(t *testing.T) {
	p, _, err := solvertest.PlantedLL(2, 2, 2, 0.1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewR1(0, 1).Solve(p, solver.Budget{}); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestR1FindsValidSolution(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 2, 0.1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewR1(500, 3).Solve(p, solver.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatalf("invalid deployment: %v", err)
	}
	if res.Cost != p.Cost(res.Deployment) {
		t.Fatal("reported cost mismatch")
	}
	if res.Nodes == 0 || len(res.Trace) == 0 {
		t.Fatal("missing accounting")
	}
}

func TestR1MoreSamplesNoWorse(t *testing.T) {
	g, err := core.Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 20, solver.LongestLink, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed: the 5000-sample run sees a superset of the 50-sample run's
	// candidates.
	few, err := NewR1(50, 9).Solve(p, solver.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewR1(5000, 9).Solve(p, solver.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if many.Cost > few.Cost {
		t.Fatalf("5000 samples cost %g worse than 50 samples %g", many.Cost, few.Cost)
	}
}

func TestR1Deterministic(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 2, 0.1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewR1(200, 7).Solve(p, solver.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewR1(200, 7).Solve(p, solver.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("R1 not deterministic: %g vs %g", a.Cost, b.Cost)
	}
}

func TestR1NodeBudgetTruncates(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 2, 0.1, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewR1(100000, 7).Solve(p, solver.Budget{Nodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 101 {
		t.Fatalf("node budget ignored: %d", res.Nodes)
	}
}

func TestR2RequiresBudget(t *testing.T) {
	p, _, err := solvertest.PlantedLL(2, 2, 2, 0.1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewR2(1).Solve(p, solver.Budget{}); err == nil {
		t.Fatal("unlimited budget accepted")
	}
}

func TestR2FindsSolutionUnderTimeBudget(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 3, 0.1, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewR2(11).Solve(p, solver.Budget{Time: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatalf("invalid deployment: %v", err)
	}
	if res.Nodes == 0 {
		t.Fatal("no samples drawn")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

func TestR2NodeBudgetExact(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 3, 0.1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []solver.Solver{NewR2(13), NewLocal(13)} {
		res, err := s.Solve(p, solver.Budget{Nodes: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes != 4000 {
			t.Fatalf("%s spent %d nodes, want exactly the budget of 4000", s.Name(), res.Nodes)
		}
	}
}

func TestR2BeatsSingleSampleOnAverage(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 3, 0.1, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewR1(1, 5).Solve(p, solver.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewR2(5).Solve(p, solver.Budget{Nodes: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if many.Cost > one.Cost {
		t.Fatalf("R2 over 5000 samples (%g) worse than a single sample (%g)", many.Cost, one.Cost)
	}
}

func TestRandomSolversOnLPNDP(t *testing.T) {
	p, _, err := solvertest.PlantedLP(6, 4, 0.1, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewR1(2000, 15).Solve(p, solver.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatal(err)
	}
	r2, err := NewR2(15).Solve(p, solver.Budget{Nodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatal(err)
	}
}
