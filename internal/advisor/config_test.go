package advisor

import (
	"math"
	"strings"
	"testing"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
)

// The naive ceil(n*(1+ratio)) over-allocated one extra instance whenever
// the float product landed just above an integer (10*1.1 =
// 11.000000000000002 -> 12). The robust rounding must give exactly
// n + ceil(n*ratio) across a table that includes the pathological cases.
func TestOverAllocateTable(t *testing.T) {
	cases := []struct {
		n     int
		ratio float64
		want  int
	}{
		{10, 0.1, 11},   // the reported bug: 10*1.1 lands one ulp above 11
		{10, 0, 10},     // no over-allocation
		{10, 0.15, 12},  // fractional extra rounds up: 1.5 -> 2
		{100, 0.1, 110}, // 100*1.1 = 110.00000000000001
		{7, 0.1, 8},     // 0.7 extra -> 1
		{3, 1.0 / 3.0, 4},
		{49, 0.1, 54}, // 4.9 extra -> 5
		{55, 0.2, 66}, // 55*1.2 = 66.00000000000001
		{1000, 0.001, 1001},
		{2, 2.0, 6},
		{12, 0.25, 15},
		{10, 1e-12, 10}, // sub-epsilon ratios round to no extras
	}
	for _, c := range cases {
		if got := OverAllocate(c.n, c.ratio); got != c.want {
			t.Errorf("OverAllocate(%d, %g) = %d, want %d", c.n, c.ratio, got, c.want)
		}
	}
	// Sweep: the result must always lie in [n + floor(n*r), n + ceil(n*r)]
	// and never exceed the exact extra count by a whole instance.
	for n := 2; n < 200; n++ {
		for _, r := range []float64{0.05, 0.1, 0.2, 0.3, 0.5} {
			exact := float64(n) * r
			got := OverAllocate(n, r)
			lo, hi := n+int(math.Floor(exact)), n+int(math.Ceil(exact+1e-9))
			if got < lo || got > hi {
				t.Fatalf("OverAllocate(%d, %g) = %d outside [%d, %d]", n, r, got, lo, hi)
			}
		}
	}
}

func validationProvider(t *testing.T) *cloud.Provider {
	t.Helper()
	dc, err := topology.New(topology.EC2Profile(), 11)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := cloud.NewProvider(dc, 0.5, 12)
	if err != nil {
		t.Fatal(err)
	}
	return prov
}

// A bad metric, scheme, objective, or solver name must be rejected before
// any instance is allocated, by both pipelines.
func TestConfigValidatedBeforeAllocation(t *testing.T) {
	g, err := core.Mesh2D(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}}
	bad := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"metric", func(c *Config) { c.Metric = "p42" }, "unknown metric"},
		{"scheme", func(c *Config) { c.Scheme = "osmosis" }, "unknown measurement scheme"},
		{"objective", func(c *Config) { c.Objective = "shortest-link" }, "unknown objective"},
		{"solver", func(c *Config) { c.SolverName = "oracle" }, "unknown solver"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			prov := validationProvider(t)
			cfg := base
			tc.mut(&cfg)
			if _, err := Advise(prov, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Advise error = %v, want %q", err, tc.want)
			}
			if prov.LiveInstances() != 0 {
				t.Fatalf("Advise allocated %d instances before validating", prov.LiveInstances())
			}
			if _, err := StreamingAdvise(prov, StreamingConfig{Config: cfg}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("StreamingAdvise error = %v, want %q", err, tc.want)
			}
			if prov.LiveInstances() != 0 {
				t.Fatalf("StreamingAdvise allocated %d instances before validating", prov.LiveInstances())
			}
		})
	}
}

// mean+sd streams like every other metric: epochs publish it from the
// Welford aggregates, StreamingAdvise searches it, and the reported costs
// are the final deployment's costs under the measurement's mean+sd matrix.
// Batch Advise searches the same final-epoch matrix.
func TestStreamingAdvisesMeanPlusStd(t *testing.T) {
	g, err := core.Mesh2D(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph:             g,
		ObjectiveSpec:     ObjectiveSpec{Objective: solver.LongestLink, Metric: MetricMeanPlusStd},
		MeasureDurationMS: 300,
		SolverBudget:      solver.Budget{Nodes: 40_000},
		Seed:              11,
	}
	check := func(name string, rep *Report) {
		t.Helper()
		prob, err := solver.NewProblem(g, rep.Measurement.MeanPlusStdMatrix(), solver.LongestLink)
		if err != nil {
			t.Fatal(err)
		}
		if got := prob.Cost(rep.Deployment); got != rep.TunedCost {
			t.Fatalf("%s: TunedCost %g is not the mean+sd cost %g", name, rep.TunedCost, got)
		}
		if got := prob.Cost(core.Identity(g.NumNodes())); got != rep.DefaultCost {
			t.Fatalf("%s: DefaultCost %g is not the mean+sd cost %g", name, rep.DefaultCost, got)
		}
		if rep.TunedCost > rep.DefaultCost {
			t.Fatalf("%s: tuned %g worse than default %g", name, rep.TunedCost, rep.DefaultCost)
		}
	}
	srep, err := StreamingAdvise(validationProvider(t), StreamingConfig{Config: cfg, EpochMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(srep.Rounds) != 3 {
		t.Fatalf("got %d rounds, want 3", len(srep.Rounds))
	}
	check("StreamingAdvise", &srep.Report)
	rep, err := Advise(validationProvider(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("Advise", rep)
	if a, b := rep.Measurement.MeanPlusStdMatrix(), srep.Measurement.MeanPlusStdMatrix(); a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Advise and StreamingAdvise measured different mean+sd matrices")
	}

	// An epoch without the matrix — as the daemon posts them — fails the
	// round the way a missing percentile tail does.
	ch := make(chan measure.Epoch, 1)
	ch <- measure.Epoch{Index: 1, Final: true, Matrix: rep.Measurement.MeanMatrix()}
	close(ch)
	if _, err := SolveStream(ch, StreamSolveConfig{
		Graph: g, ObjectiveSpec: cfg.ObjectiveSpec, SolverName: "g1", RoundBudget: solver.Budget{Nodes: 10},
	}); err == nil || !strings.Contains(err.Error(), "carries no mean+sd matrix") {
		t.Fatalf("epoch without mean+sd: error = %v", err)
	}
}

// searchDefaults is the one place Advise, SolveStream and RunRedeploy
// resolve a solver, cluster count and budget left zero.
func TestSearchDefaults(t *testing.T) {
	cases := []struct {
		name, def string
		k         int
		budget    solver.Budget
		wantName  string
		wantK     int
		wantNodes int64
	}{
		{"", "cp", 0, solver.Budget{}, "cp", 20, 2_000_000},
		{"", "mip", 0, solver.Budget{}, "mip", 0, 2_000_000},
		{"", "portfolio", 0, solver.Budget{Nodes: 5}, "portfolio", 20, 5},
		{"portfolio", "cp", 0, solver.Budget{}, "portfolio", 20, 2_000_000},
		{"cp", "mip", -1, solver.Budget{}, "cp", -1, 2_000_000},
		{"g2", "cp", 0, solver.Budget{}, "g2", 0, 2_000_000},
		{"mip", "cp", 7, solver.Budget{}, "mip", 7, 2_000_000},
		{"sa", "cp", 0, solver.Budget{Time: -1, Nodes: -5}, "sa", 0, 2_000_000},
	}
	for _, c := range cases {
		name, k, budget := searchDefaults(c.name, c.def, c.k, c.budget)
		if name != c.wantName || k != c.wantK || budget.Nodes != c.wantNodes {
			t.Errorf("searchDefaults(%q, %q, %d, %+v) = %q, %d, %+v; want %q, %d, %d nodes",
				c.name, c.def, c.k, c.budget, name, k, budget, c.wantName, c.wantK, c.wantNodes)
		}
	}
	if got := paperSolver(solver.LongestPath); got != "mip" {
		t.Errorf("paperSolver(longest path) = %q", got)
	}
	if got := paperSolver(solver.LongestLink); got != "cp" {
		t.Errorf("paperSolver(longest link) = %q", got)
	}
}
