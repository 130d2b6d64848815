package anneal

import (
	"context"
	"testing"
	"time"

	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
)

func TestRequiresBudget(t *testing.T) {
	p, _, err := solvertest.PlantedLL(2, 2, 2, 0.1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A budget whose only axes are negative bounds nothing either. The
	// context deadline stops the run if one is wrongly accepted.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, b := range []solver.Budget{{}, {Nodes: -5}, {Time: -time.Millisecond}} {
		if _, err := New(1).SolveContext(ctx, p, b); err == nil {
			t.Fatalf("unlimited budget %+v accepted", b)
		}
	}
}

func TestFindsPlantedOptimum(t *testing.T) {
	p, optCeil, err := solvertest.PlantedLL(3, 3, 3, 0.1, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(3).Solve(p, solver.Budget{Nodes: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatal(err)
	}
	if res.Cost > optCeil {
		t.Fatalf("SA cost %g, want <= %g", res.Cost, optCeil)
	}
}

func TestImprovesOnBootstrapForBothObjectives(t *testing.T) {
	gLL, err := core.Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pLL, err := solvertest.Realistic(gLL, 20, solver.LongestLink, 5)
	if err != nil {
		t.Fatal(err)
	}
	pLP, _, err := solvertest.PlantedLP(8, 4, 0.1, 1.0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*solver.Problem{pLL, pLP} {
		res, err := New(7).Solve(p, solver.Budget{Nodes: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		first := res.Trace[0].Cost
		if res.Cost > first {
			t.Fatalf("SA final %g worse than bootstrap %g", res.Cost, first)
		}
		if err := res.Deployment.Validate(p.NumInstances()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUsesOverAllocatedInstances(t *testing.T) {
	// With a planted clique of exactly n good instances among n+extra, the
	// optimum requires relocating onto unused instances; SA's move set
	// includes relocation, so it should reach it.
	p, optCeil, err := solvertest.PlantedLL(2, 3, 6, 0.1, 1.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(11).Solve(p, solver.Budget{Nodes: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > optCeil {
		t.Fatalf("SA did not exploit over-allocation: %g > %g", res.Cost, optCeil)
	}
}

func TestDeterministicWithNodeBudget(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 2, 0.1, 1.0, 13)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(15).Solve(p, solver.Budget{Nodes: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(15).Solve(p, solver.Budget{Nodes: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("SA not deterministic: %g vs %g", a.Cost, b.Cost)
	}
}

func TestName(t *testing.T) {
	if New(1).Name() != "SA" {
		t.Fatal("name")
	}
}
