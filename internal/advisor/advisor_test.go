package advisor

import (
	"testing"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
	"cloudia/internal/topology"
)

func provider(t *testing.T, seed int64) *cloud.Provider {
	t.Helper()
	dc, err := topology.New(topology.EC2Profile(), seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cloud.NewProvider(dc, 0.6, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func meshGraph(t *testing.T, r, c int) *core.Graph {
	t.Helper()
	g, err := core.Mesh2D(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAdviseValidation(t *testing.T) {
	p := provider(t, 1)
	if _, err := Advise(p, Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := meshGraph(t, 3, 3)
	if _, err := Advise(p, Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, OverAllocation: -1}); err == nil {
		t.Fatal("negative over-allocation accepted")
	}
	if _, err := Advise(p, Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink, Metric: "bogus"}}); err == nil {
		t.Fatal("bogus metric accepted")
	}
	if _, err := Advise(p, Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, SolverName: "bogus"}); err == nil {
		t.Fatal("bogus solver accepted")
	}
}

func TestNewSolverNames(t *testing.T) {
	for _, name := range []string{"cp", "mip", "g1", "g2", "r1", "r2", "sa"} {
		s, err := NewSolver(name, 10, 1)
		if err != nil {
			t.Fatalf("NewSolver(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("NewSolver(%q) returned nil", name)
		}
	}
	if _, err := NewSolver("nope", 0, 1); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

// TestWarmMatrixPrep: a warmed set holds the rounded set at the solver's
// resolved cluster count exactly where the solver reads it, and nothing
// else: G1's rows are not a set artifact, and an unknown name warms
// nothing.
func TestWarmMatrixPrep(t *testing.T) {
	p, _, err := solvertest.PlantedLL(2, 3, 3, 0.1, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		clusterK int
		obj      solver.Objective
		k        int
		rounded  bool
	}{
		{"cp", 0, solver.LongestLink, 20, true},
		{"cp", 4, solver.LongestPath, 4, false},
		{"portfolio", 5, solver.LongestLink, 5, true},
		{"portfolio", 0, solver.LongestPath, 20, false},
		{"", 0, solver.LongestLink, 20, true},
		{"mip", 3, solver.LongestPath, 3, true},
		{"mip", 0, solver.LongestLink, 0, false},
		{"g1", 0, solver.LongestLink, 0, false},
		{"g2", 0, solver.LongestLink, 0, false},
		{"sa", 7, solver.LongestLink, 7, false},
		{"nope", 0, solver.LongestLink, 0, false},
	} {
		set := solver.NewMatrixPrep(p.Costs)
		if err := WarmMatrixPrep(set, c.name, c.clusterK, c.obj); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The warmed set holds that one rounded set and nothing else.
		got := set.Bytes()
		var want int64
		if c.rounded {
			r, err := set.RoundedSet(c.k)
			if err != nil {
				t.Fatal(err)
			}
			want = r.Bytes()
		}
		if got != want {
			t.Errorf("%s k=%d %s: warmed set holds %d bytes, want %d", c.name, c.clusterK, c.obj, got, want)
		}
		// A Prep reading the warmed set hits exactly what was built.
		q, err := solver.NewProblem(p.Graph, p.Costs, p.Objective)
		if err != nil {
			t.Fatal(err)
		}
		q.Prep().ShareMatrix(set)
		q.Prep().RoundedSet(c.k)
		if hits, _ := q.Prep().SharedReads(); (hits == 1) != c.rounded {
			t.Errorf("%s k=%d %s: RoundedSet(%d) warm = %v, want %v", c.name, c.clusterK, c.obj, c.k, hits == 1, c.rounded)
		}
	}
}

func TestAdviseEndToEndLongestLink(t *testing.T) {
	p := provider(t, 3)
	g := meshGraph(t, 4, 4)
	rep, err := Advise(p, Config{
		Graph:          g,
		ObjectiveSpec:  ObjectiveSpec{Objective: solver.LongestLink},
		OverAllocation: 0.25,
		Seed:           5,
		SolverBudget:   solver.Budget{Nodes: 500_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AllInstances) != 20 {
		t.Fatalf("allocated %d instances, want 20", len(rep.AllInstances))
	}
	if err := rep.Deployment.Validate(20); err != nil {
		t.Fatalf("invalid deployment: %v", err)
	}
	if len(rep.Assignments) != 16 {
		t.Fatalf("assignments cover %d nodes, want 16", len(rep.Assignments))
	}
	// Over-allocated leftovers terminated: 20 - 16 = 4.
	if len(rep.TerminatedIDs) != 4 {
		t.Fatalf("terminated %d instances, want 4", len(rep.TerminatedIDs))
	}
	if p.LiveInstances() != 16 {
		t.Fatalf("provider has %d live instances, want 16", p.LiveInstances())
	}
	// The tuned deployment must not be worse than the default under the
	// measured costs (the solver bootstraps from random and only improves).
	if rep.TunedCost > rep.DefaultCost {
		t.Fatalf("tuned cost %g worse than default %g", rep.TunedCost, rep.DefaultCost)
	}
	if rep.Improvement() < 0 {
		t.Fatalf("negative improvement %g", rep.Improvement())
	}
	if rep.SolverName == "" || rep.Search == nil || rep.Measurement == nil {
		t.Fatal("report missing provenance")
	}
}

func TestAdviseEndToEndLongestPath(t *testing.T) {
	p := provider(t, 7)
	g, err := core.TwoLevelAggregation(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Advise(p, Config{
		Graph:          g,
		ObjectiveSpec:  ObjectiveSpec{Objective: solver.LongestPath},
		OverAllocation: 0.1,
		Seed:           9,
		SolverBudget:   solver.Budget{Nodes: 500_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SolverName != "MIP" {
		t.Fatalf("default LP solver = %s, want MIP", rep.SolverName)
	}
	if rep.TunedCost > rep.DefaultCost {
		t.Fatalf("tuned %g worse than default %g", rep.TunedCost, rep.DefaultCost)
	}
}

func TestAdviseDefaultsToCPWithK20(t *testing.T) {
	p := provider(t, 11)
	g := meshGraph(t, 3, 3)
	rep, err := Advise(p, Config{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		Seed:          13,
		SolverBudget:  solver.Budget{Nodes: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SolverName != "CP(k=20)" {
		t.Fatalf("default LL solver = %s, want CP(k=20)", rep.SolverName)
	}
}

func TestAdviseAlternativeMetricsAndSchemes(t *testing.T) {
	for _, m := range []Metric{MetricMean, MetricMeanPlusStd, MetricP99} {
		for _, s := range []measure.Scheme{measure.Staged, measure.Uncoordinated} {
			p := provider(t, 17)
			g := meshGraph(t, 3, 3)
			rep, err := Advise(p, Config{
				Graph:          g,
				ObjectiveSpec:  ObjectiveSpec{Objective: solver.LongestLink, Metric: m, Scheme: s},
				OverAllocation: 0.2,
				Seed:           19,
				SolverName:     "g2",
				SolverBudget:   solver.Budget{Nodes: 50_000},
			})
			if err != nil {
				t.Fatalf("metric %s scheme %s: %v", m, s, err)
			}
			if err := rep.Deployment.Validate(len(rep.AllInstances)); err != nil {
				t.Fatalf("metric %s scheme %s: %v", m, s, err)
			}
		}
	}
}

func TestAdviseZeroOverAllocation(t *testing.T) {
	// Without over-allocation ClouDiA still helps by finding a good
	// injection (the paper reports 16% improvement at 0%). All instances
	// stay alive.
	p := provider(t, 23)
	g := meshGraph(t, 3, 3)
	rep, err := Advise(p, Config{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		Seed:          29,
		SolverBudget:  solver.Budget{Nodes: 300_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TerminatedIDs) != 0 {
		t.Fatalf("terminated %d instances with zero over-allocation", len(rep.TerminatedIDs))
	}
	if rep.TunedCost > rep.DefaultCost {
		t.Fatalf("tuned %g worse than default %g", rep.TunedCost, rep.DefaultCost)
	}
}

func TestAssignmentsMatchDeployment(t *testing.T) {
	p := provider(t, 31)
	g := meshGraph(t, 2, 3)
	rep, err := Advise(p, Config{
		Graph:          g,
		ObjectiveSpec:  ObjectiveSpec{Objective: solver.LongestLink},
		OverAllocation: 0.5,
		Seed:           37,
		SolverName:     "r1",
		SolverBudget:   solver.Budget{Nodes: 10_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for node, inst := range rep.Deployment {
		if rep.Assignments[node].ID != rep.AllInstances[inst].ID {
			t.Fatalf("assignment mismatch at node %d", node)
		}
	}
	// No assigned instance may appear in the terminated list.
	dead := make(map[string]bool)
	for _, id := range rep.TerminatedIDs {
		dead[id] = true
	}
	for _, inst := range rep.Assignments {
		if dead[inst.ID] {
			t.Fatalf("assigned instance %s was terminated", inst.ID)
		}
	}
}
