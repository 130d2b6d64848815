package advisor

import (
	"reflect"
	"testing"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
)

// shiftingProvider builds a provider over a non-stationary EC2-like network
// whose regime changes every regimeHours.
func shiftingProvider(t *testing.T, regimeHours float64, seed int64) *cloud.Provider {
	t.Helper()
	prof := topology.EC2Profile()
	prof.RegimeHours = regimeHours
	dc, err := topology.New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cloud.NewProvider(dc, 0.6, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRedeployValidation(t *testing.T) {
	p := shiftingProvider(t, 8, 1)
	g := meshGraph(t, 3, 3)
	if _, err := RunRedeploy(p, RedeployConfig{Graph: nil, PeriodHours: 1, Periods: 1}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := RunRedeploy(p, RedeployConfig{Graph: g, Objective: solver.LongestLink, Periods: 1}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := RunRedeploy(p, RedeployConfig{
		Graph: g, Objective: solver.LongestLink, PeriodHours: 1, Periods: 1,
		MigrationCostPerNode: -1,
	}); err == nil {
		t.Fatal("negative migration cost accepted")
	}
	for _, bad := range []RedeployConfig{
		{Graph: g, Objective: solver.LongestLink, PeriodHours: 1, Periods: 1, SolverName: "oracle"},
		{Graph: g, Objective: "shortest-link", PeriodHours: 1, Periods: 1},
		{Graph: g, Objective: solver.LongestLink, PeriodHours: 1, Periods: 1, OverAllocation: -1},
	} {
		if _, err := RunRedeploy(p, bad); err == nil {
			t.Fatalf("solver %q, objective %q, over-allocation %g accepted", bad.SolverName, bad.Objective, bad.OverAllocation)
		}
	}
	// No rejected configuration allocated or measured anything: the
	// provider's next instance is still its first.
	insts, err := p.RunInstances(1)
	if err != nil {
		t.Fatal(err)
	}
	if insts[0].ID != "i-00000000" {
		t.Fatalf("rejected configurations allocated instances: next ID is %s", insts[0].ID)
	}
}

func TestRedeployAdaptsToRegimeChanges(t *testing.T) {
	p := shiftingProvider(t, 8, 3)
	g := meshGraph(t, 4, 4)
	rep, err := RunRedeploy(p, RedeployConfig{
		Graph:          g,
		Objective:      solver.LongestLink,
		OverAllocation: 0.25,
		PeriodHours:    8, // aligned with regime changes: each period sees a new network
		Periods:        4,
		MinImprovement: 0.05,
		Seed:           5,
		SolverBudget:   solver.Budget{Nodes: 400_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Periods) != 4 {
		t.Fatalf("recorded %d periods, want 4", len(rep.Periods))
	}
	if rep.Redeployments == 0 {
		t.Fatal("never re-deployed despite regime changes every period")
	}
	// The adaptive plan must beat the frozen initial plan on average.
	if rep.MeanAdaptiveCost() >= rep.MeanStaticCost() {
		t.Fatalf("adaptive %.4f >= static %.4f", rep.MeanAdaptiveCost(), rep.MeanStaticCost())
	}
	if err := rep.Final.Validate(len(rep.Instances)); err != nil {
		t.Fatalf("final deployment invalid: %v", err)
	}
}

func TestRedeployStableNetworkStaysPut(t *testing.T) {
	// On a stationary network (RegimeHours = 0) the initial plan stays
	// near-optimal, so with a meaningful hysteresis threshold there should
	// be no re-deployments.
	p := shiftingProvider(t, 0, 7)
	g := meshGraph(t, 4, 4)
	rep, err := RunRedeploy(p, RedeployConfig{
		Graph:          g,
		Objective:      solver.LongestLink,
		OverAllocation: 0.25,
		PeriodHours:    8,
		Periods:        3,
		MinImprovement: 0.10,
		Seed:           9,
		SolverBudget:   solver.Budget{Nodes: 400_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Redeployments != 0 {
		t.Fatalf("re-deployed %d times on a stable network", rep.Redeployments)
	}
}

func TestRedeployMigrationCostSuppressesChurn(t *testing.T) {
	// With a prohibitive migration cost, the adaptive plan must freeze even
	// under regime changes.
	p := shiftingProvider(t, 8, 11)
	g := meshGraph(t, 4, 4)
	rep, err := RunRedeploy(p, RedeployConfig{
		Graph:                g,
		Objective:            solver.LongestLink,
		OverAllocation:       0.25,
		PeriodHours:          8,
		Periods:              3,
		MinImprovement:       0.05,
		MigrationCostPerNode: 100, // ~1600 ms charge vs ~1 ms gains
		Seed:                 13,
		SolverBudget:         solver.Budget{Nodes: 200_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Redeployments != 0 {
		t.Fatalf("re-deployed %d times despite prohibitive migration cost", rep.Redeployments)
	}
	// Static and adaptive must then coincide.
	for i, p := range rep.Periods {
		if p.AdaptiveCost != p.StaticCost {
			t.Fatalf("period %d: adaptive %.4f != static %.4f with frozen plan",
				i, p.AdaptiveCost, p.StaticCost)
		}
	}
}

func TestRedeployKeepsSpareInstances(t *testing.T) {
	p := shiftingProvider(t, 8, 15)
	g := meshGraph(t, 3, 3)
	before := p.LiveInstances()
	rep, err := RunRedeploy(p, RedeployConfig{
		Graph:          g,
		Objective:      solver.LongestLink,
		OverAllocation: 0.5,
		PeriodHours:    8,
		Periods:        2,
		Seed:           17,
		SolverBudget:   solver.Budget{Nodes: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive sessions retain the full allocation (no termination).
	if p.LiveInstances() != before+len(rep.Instances) {
		t.Fatalf("live instances %d, want %d", p.LiveInstances(), before+len(rep.Instances))
	}
}

// A session sizes its allocation the way Advise does, n + ceil(n*ratio)
// robust to float rounding (50 nodes at 0.1 is 55 instances; the naive
// ceil(50*1.1) gave 56), and rejects a negative ratio before allocating
// anything.
func TestRedeployAllocationSize(t *testing.T) {
	p := shiftingProvider(t, 8, 19)
	cfg := RedeployConfig{
		Objective:      solver.LongestLink,
		OverAllocation: 0.1,
		PeriodHours:    8,
		Periods:        1,
		Seed:           21,
		SolverBudget:   solver.Budget{Nodes: 20_000},
	}
	for _, c := range []struct{ rows, cols, want int }{{2, 5, 11}, {5, 10, 55}} {
		cfg.Graph = meshGraph(t, c.rows, c.cols)
		rep, err := RunRedeploy(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Instances) != c.want {
			t.Fatalf("%d nodes at 0.1 allocated %d instances, want %d", c.rows*c.cols, len(rep.Instances), c.want)
		}
	}

	before := p.LiveInstances()
	cfg.OverAllocation = -0.1
	if _, err := RunRedeploy(p, cfg); err == nil {
		t.Fatal("negative over-allocation accepted")
	}
	if p.LiveInstances() != before {
		t.Fatalf("negative over-allocation allocated %d instances", p.LiveInstances()-before)
	}
}

// TestRedeployReportsPinned pins two whole re-deployment sessions, one per
// objective (CP on a 5x5 mesh, MIP on a two-level tree), to the reports
// recorded when each period still ran its own measure.Run and Solve: every
// period now goes through the one measure.Stream + SolveStream pipeline,
// and must not move a single deployment or cost bit.
func TestRedeployReportsPinned(t *testing.T) {
	tree, err := core.TwoLevelAggregation(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		g             *core.Graph
		obj           solver.Objective
		initial       core.Deployment
		final         core.Deployment
		periods       []PeriodOutcome
		redeployments int
		moves         int
	}{
		{
			name:    "mesh5x5/longest-link",
			g:       meshGraph(t, 5, 5),
			obj:     solver.LongestLink,
			initial: core.Deployment{15, 3, 29, 2, 24, 11, 5, 23, 31, 10, 19, 1, 9, 17, 26, 22, 30, 27, 7, 8, 14, 25, 12, 6, 13},
			final:   core.Deployment{25, 6, 17, 29, 11, 19, 23, 27, 5, 12, 13, 2, 9, 4, 30, 8, 7, 18, 28, 1, 3, 24, 20, 16, 22},
			periods: []PeriodOutcome{
				{Hours: 8, StaticCost: 0.9980380481787279, AdaptiveCost: 0.5303931568447225, Redeployed: true, MovedNodes: 25},
				{Hours: 16, StaticCost: 0.7470634020501052, AdaptiveCost: 0.5203250032488554, Redeployed: true, MovedNodes: 25},
				{Hours: 24, StaticCost: 0.6417688439852668, AdaptiveCost: 0.5251116455040461, Redeployed: true, MovedNodes: 23},
				{Hours: 32, StaticCost: 1.3080457612470893, AdaptiveCost: 0.5331102101942974, Redeployed: true, MovedNodes: 25},
				{Hours: 40, StaticCost: 1.3294354192745799, AdaptiveCost: 0.5371876648968736, Redeployed: true, MovedNodes: 22},
			},
			redeployments: 5, moves: 120,
		},
		{
			name:    "twolevel3x9/longest-path",
			g:       tree,
			obj:     solver.LongestPath,
			initial: core.Deployment{0, 11, 12, 8, 9, 6, 2, 1, 14, 13, 5, 16, 4},
			final:   core.Deployment{1, 11, 9, 16, 13, 2, 5, 15, 4, 14, 8, 6, 3},
			periods: []PeriodOutcome{
				{Hours: 8, StaticCost: 1.507732149147546, AdaptiveCost: 1.038710737599473, Redeployed: true, MovedNodes: 12},
				{Hours: 16, StaticCost: 1.20382403924239, AdaptiveCost: 1.0095654567623682, Redeployed: true, MovedNodes: 13},
				{Hours: 24, StaticCost: 1.139655433211749, AdaptiveCost: 1.0009278591012205, Redeployed: true, MovedNodes: 9},
				{Hours: 32, StaticCost: 1.504128531057472, AdaptiveCost: 1.0354292789286987, Redeployed: true, MovedNodes: 10},
				{Hours: 40, StaticCost: 1.6375531436101132, AdaptiveCost: 1.0941713213702287, Redeployed: true, MovedNodes: 10},
			},
			redeployments: 5, moves: 54,
		},
	} {
		rep, err := RunRedeploy(shiftingProvider(t, 8, 31), RedeployConfig{
			Graph: c.g, Objective: c.obj, OverAllocation: 0.25, PeriodHours: 8, Periods: 5,
			MinImprovement: 0.05, Seed: 31, SolverBudget: solver.Budget{Nodes: 200_000},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(rep.Initial, c.initial) || !reflect.DeepEqual(rep.Final, c.final) {
			t.Errorf("%s: initial/final = %v / %v, want %v / %v", c.name, rep.Initial, rep.Final, c.initial, c.final)
		}
		if !reflect.DeepEqual(rep.Periods, c.periods) {
			t.Errorf("%s: periods = %+v, want %+v", c.name, rep.Periods, c.periods)
		}
		if rep.Redeployments != c.redeployments || rep.TotalMoves != c.moves {
			t.Errorf("%s: redeployments/moves = %d/%d, want %d/%d", c.name, rep.Redeployments, rep.TotalMoves, c.redeployments, c.moves)
		}
	}
}
