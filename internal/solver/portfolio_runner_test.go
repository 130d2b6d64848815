package solver_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/anneal"
	"cloudia/internal/solver/cp"
	"cloudia/internal/solver/greedy"
	"cloudia/internal/solver/mip"
	"cloudia/internal/solver/random"
	"cloudia/internal/solver/solvertest"
)

func TestPortfolioRequiresBoundedBudget(t *testing.T) {
	p, _, err := solvertest.PlantedLL(2, 2, 2, 0.1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pf := solver.NewPortfolio(greedy.New(greedy.G1))
	if _, err := pf.Solve(p, solver.Budget{}); err == nil {
		t.Fatal("unlimited budget accepted")
	}
	if _, err := solver.NewPortfolio().Solve(p, solver.Budget{Nodes: 10}); err == nil {
		t.Fatal("empty portfolio accepted")
	}
}

// TestPortfolioNotWorseThanMembers verifies the defining property: on the
// same problem and seeds, the portfolio's cost is <= every member's
// sequential cost. Exercised with -race in CI, this also covers the
// reduction's synchronization.
func TestPortfolioNotWorseThanMembers(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p, _, err := solvertest.PlantedLL(3, 3, 4, 0.1, 1.0, seed)
		if err != nil {
			t.Fatal(err)
		}
		budget := solver.Budget{Nodes: 30_000}
		members := func() []solver.Solver {
			return []solver.Solver{
				cp.New(10, seed),
				mip.New(10, seed),
				greedy.New(greedy.G1),
				greedy.New(greedy.G2),
				random.NewLocal(seed),
				anneal.New(seed),
			}
		}
		pf := solver.NewPortfolio(members()...)
		res, err := pf.Solve(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Deployment.Validate(p.NumInstances()); err != nil {
			t.Fatal(err)
		}
		if got := p.Cost(res.Deployment); got != res.Cost {
			t.Fatalf("reported %g, actual %g", res.Cost, got)
		}
		if res.Winner == "" {
			t.Fatal("winner not recorded")
		}
		for _, m := range members() {
			mres, err := m.Solve(p, budget)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if res.Cost > mres.Cost+1e-12 {
				t.Fatalf("seed %d: portfolio %g worse than member %s %g", seed, res.Cost, m.Name(), mres.Cost)
			}
		}
	}
}

// TestPortfolioSkipsInapplicableMembers: CP rejects longest-path problems;
// the portfolio must fall back to the remaining members rather than fail.
func TestPortfolioSkipsInapplicableMembers(t *testing.T) {
	p, _, err := solvertest.PlantedLP(6, 3, 0.1, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	pf := solver.NewPortfolio(cp.New(0, 3), anneal.New(3), random.NewLocal(3))
	res, err := pf.Solve(p, solver.Budget{Nodes: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatal(err)
	}
}

// TestPortfolioRespectsTimeBudget: the runner must come back close to the
// wall-clock budget even though every member gets the full budget.
func TestPortfolioRespectsTimeBudget(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 3, 0.1, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	budget := 250 * time.Millisecond
	pf := advisor.NewPortfolio(10, 5)
	start := time.Now()
	res, err := pf.Solve(p, solver.Budget{Time: budget})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Acceptance bound is budget+10%; allow scheduling slack on loaded CI
	// machines without letting a runaway member through.
	if elapsed > budget+budget/2 {
		t.Fatalf("portfolio took %v against a %v budget", elapsed, budget)
	}
	if err := res.Deployment.Validate(p.NumInstances()); err != nil {
		t.Fatal(err)
	}
}

// TestPortfolioOptimalShortCircuit: when a member proves optimality the
// portfolio must report it.
func TestPortfolioOptimalShortCircuit(t *testing.T) {
	p, _, err := solvertest.PlantedLL(2, 2, 2, 0.1, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	pf := solver.NewPortfolio(cp.New(0, 7), anneal.New(7))
	res, err := pf.Solve(p, solver.Budget{Nodes: 50_000_000, Time: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("CP proved optimality but the portfolio did not report it")
	}
}

// TestLocalSearchSingleNodeProblem: a 1-node problem is valid; the local
// searches must not panic proposing swaps (a portfolio member panicking
// would kill the whole process).
func TestLocalSearchSingleNodeProblem(t *testing.T) {
	g := core.NewGraph(1)
	m := core.NewCostMatrix(3)
	m.Set(1, 2, 0.5)
	m.Set(2, 1, 0.5)
	p, err := solver.NewProblem(g, m, solver.LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []solver.Solver{anneal.New(1), random.NewLocal(1)} {
		res, err := s.Solve(p, solver.Budget{Nodes: 1000})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := res.Deployment.Validate(p.NumInstances()); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Cost != 0 {
			t.Fatalf("%s: cost %g on edgeless graph, want 0", s.Name(), res.Cost)
		}
	}
	pf := advisor.NewPortfolio(0, 1)
	if _, err := pf.Solve(p, solver.Budget{Nodes: 1000}); err != nil {
		t.Fatal(err)
	}
}

// panicSolver is a portfolio member that dies mid-search.
type panicSolver struct{}

func (panicSolver) Name() string { return "panicker" }
func (panicSolver) Solve(*solver.Problem, solver.Budget) (*solver.Result, error) {
	panic("injected solver fault")
}
func (s panicSolver) SolveContext(_ context.Context, p *solver.Problem, b solver.Budget) (*solver.Result, error) {
	return s.Solve(p, b)
}

// TestPortfolioIsolatesPanickingMember: a member that panics loses only its
// own lane — the panic is captured as that member's error (with its stack)
// and the surviving members still produce the result.
func TestPortfolioIsolatesPanickingMember(t *testing.T) {
	p, _, err := solvertest.PlantedLL(3, 3, 4, 0.1, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	pf := solver.NewPortfolio(panicSolver{}, greedy.New(greedy.G2))
	res, err := pf.Solve(p, solver.Budget{Nodes: 5_000})
	if err != nil {
		t.Fatalf("surviving member's result lost: %v", err)
	}
	if res.Winner != "G2" {
		t.Fatalf("winner = %q, want the surviving member", res.Winner)
	}

	// With every member panicking there is no result; the error must carry
	// the panic value and a stack trace.
	all := solver.NewPortfolio(panicSolver{}, panicSolver{})
	if _, err := all.Solve(p, solver.Budget{Nodes: 100}); err == nil {
		t.Fatal("all-panicked portfolio returned a result")
	} else if !strings.Contains(err.Error(), "injected solver fault") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic error lacks value or stack: %v", err)
	}
}
