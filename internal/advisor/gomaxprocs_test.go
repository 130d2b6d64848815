package advisor

import (
	"reflect"
	"runtime"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/random"
	"cloudia/internal/solver/solvertest"
)

// TestNodeBudgetedSolversIgnoreGOMAXPROCS pins that a node-budgeted answer
// is a function of the seed alone: R2, R2L and the default portfolio must
// return bit-identical deployments and costs at GOMAXPROCS 1, 2 and 4.
func TestNodeBudgetedSolversIgnoreGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p, _, err := solvertest.PlantedLL(5, 5, 15, 0.1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []solver.Solver{random.NewR2(5), random.NewLocal(5), NewPortfolio(20, 5)} {
		var refDep core.Deployment
		var refCost float64
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			// A fresh Problem per run, so no Prep artifact carries over.
			fresh, err := solver.NewProblem(p.Graph, p.Costs, p.Objective)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(fresh, solver.Budget{Nodes: 20_000})
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", s.Name(), procs, err)
			}
			if procs == 1 {
				refDep, refCost = res.Deployment, res.Cost
				continue
			}
			if res.Cost != refCost || !reflect.DeepEqual(res.Deployment, refDep) {
				t.Fatalf("%s at GOMAXPROCS %d: cost %v %v, GOMAXPROCS 1 gave %v %v",
					s.Name(), procs, res.Cost, res.Deployment, refCost, refDep)
			}
		}
	}
}
