// Package advisor implements ClouDiA's end-to-end tuning methodology
// (Sect. 2.2, Fig. 3): allocate instances (over-allocating by a configurable
// ratio), measure pairwise latencies, search for a deployment plan
// minimizing the tenant's objective, and terminate the extra instances. The
// tenant provides only a communication graph and an objective; everything
// else — measurement scheme, latency metric, search technique — has paper
// defaults and can be overridden.
package advisor

import (
	"fmt"
	"math"
	"time"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/solver/anneal"
	"cloudia/internal/solver/cp"
	"cloudia/internal/solver/greedy"
	"cloudia/internal/solver/mip"
	"cloudia/internal/solver/random"
)

// Metric selects how per-link latency samples are summarized into the
// communication cost (Sect. 3.2).
type Metric string

// The latency metrics the paper evaluates (Fig. 10, Fig. 11), plus p95.
// Percentile metrics select the multi-objective mode described on
// ObjectiveSpec.
const (
	MetricMean        Metric = "mean"
	MetricMeanPlusStd Metric = "mean+sd"
	MetricP95         Metric = "p95"
	MetricP99         Metric = "p99"
)

// Config drives one advising run.
type Config struct {
	// Graph is the application's communication graph; required.
	Graph *core.Graph
	// ObjectiveSpec says what to optimize — objective, metric, measurement
	// scheme, tie-break policy — and is validated once here for every
	// entry point (see its doc).
	ObjectiveSpec
	// OverAllocation is the fraction of extra instances to allocate beyond
	// the node count (the paper's default experiments use 0.1).
	OverAllocation float64
	// MeasureDurationMS is the virtual measurement budget; zero scales the
	// paper's rule of 5 minutes per 100 instances down to simulator scale:
	// 20 ms of staged measurement per instance.
	MeasureDurationMS float64
	// SolverName picks the search technique: cp, mip, g1, g2, r1, r2, r2l,
	// sa, or portfolio (CP, G2, R2L and three SA restarts racing
	// concurrently, one goroutine each; see NewPortfolio). Empty selects cp
	// for longest link and mip for longest path, the paper's choices (Sect.
	// 6.3).
	SolverName string
	// ClusterK rounds costs into k clusters for cp/mip; zero selects the
	// paper's k=20 for CP (also the portfolio's CP member) and no
	// clustering for MIP (Sect. 6.3).
	ClusterK int
	// SolverBudget bounds the search; zero selects 2M search nodes.
	SolverBudget solver.Budget
	// Seed drives all randomness.
	Seed int64
}

// Report is the outcome of an advising run.
type Report struct {
	// AllInstances is the full (over-)allocation in provider order.
	AllInstances []cloud.Instance
	// Deployment maps node -> index into AllInstances.
	Deployment core.Deployment
	// Assignments maps node -> the instance it should run on.
	Assignments []cloud.Instance
	// TerminatedIDs are the over-allocated instances ClouDiA shut down.
	TerminatedIDs []string
	// DefaultCost and TunedCost are deployment costs under the measured
	// cost matrix for the provider-order default deployment and the tuned
	// one.
	DefaultCost float64
	TunedCost   float64
	// Measurement carries the raw measurement result.
	Measurement *measure.Result
	// Search carries the solver result (trace, optimality, budget use).
	Search *solver.Result
	// SolverName records which technique ran.
	SolverName string
}

// Improvement reports the predicted relative cost reduction of the tuned
// deployment versus the default, in [0, 1].
func (r *Report) Improvement() float64 {
	if r.DefaultCost == 0 {
		return 0
	}
	return (r.DefaultCost - r.TunedCost) / r.DefaultCost
}

// validate checks every tenant-facing configuration field that does not
// require allocated instances to judge, so a bad metric, scheme, objective,
// or solver name is rejected before a single instance is allocated or
// measured.
func (cfg *Config) validate() error {
	if cfg.Graph == nil {
		return fmt.Errorf("advisor: nil communication graph")
	}
	if n := cfg.Graph.NumNodes(); n < 2 {
		return fmt.Errorf("advisor: need >= 2 application nodes, got %d", n)
	}
	if cfg.OverAllocation < 0 {
		return fmt.Errorf("advisor: negative over-allocation %g", cfg.OverAllocation)
	}
	if err := cfg.ObjectiveSpec.Validate(); err != nil {
		return err
	}
	if cfg.SolverName != "" {
		if _, err := NewSolver(cfg.SolverName, 1, 0); err != nil {
			return err
		}
	}
	return nil
}

// OverAllocate returns the instance count for n application nodes at the
// given over-allocation ratio: n plus ceil(n*ratio) extra instances,
// computed robustly against float rounding. The naive
// ceil(n*(1+ratio)) over-allocates one whole extra instance whenever the
// product lands one ulp above an integer — n=100 at the paper's default
// 0.1 gives 100*1.1 = 110.00000000000001, so ceil returned 111 where 110
// instances were intended.
func OverAllocate(n int, ratio float64) int {
	const eps = 1e-9
	extra := int(math.Ceil(float64(n)*ratio - eps))
	if extra < 0 {
		extra = 0
	}
	return n + extra
}

// paperSolver is the paper's search technique for an objective (Sect.
// 6.3): cp for longest link, mip for longest path.
func paperSolver(obj solver.Objective) string {
	if obj == solver.LongestPath {
		return "mip"
	}
	return "cp"
}

// searchDefaults resolves the search settings a caller left zero, the same
// way for every entry point: an empty name selects def, a zero clusterK
// selects the paper's k=20 for cp and for the portfolio's CP member (Fig.
// 6), and an unlimited budget selects 2M search nodes.
func searchDefaults(name, def string, clusterK int, budget solver.Budget) (string, int, solver.Budget) {
	if name == "" {
		name = def
	}
	if clusterK == 0 && (name == "cp" || name == "portfolio") {
		clusterK = 20
	}
	if budget.Unlimited() {
		budget = solver.Budget{Nodes: 2_000_000}
	}
	return name, clusterK, budget
}

// NewSolver builds a solver by name. clusterK applies to cp and mip only.
func NewSolver(name string, clusterK int, seed int64) (solver.Solver, error) {
	switch name {
	case "cp":
		return cp.New(clusterK, seed), nil
	case "mip":
		return mip.New(clusterK, seed), nil
	case "g1":
		return greedy.New(greedy.G1), nil
	case "g2":
		return greedy.New(greedy.G2), nil
	case "r1":
		return random.NewR1(1000, seed), nil
	case "r2":
		return random.NewR2(seed), nil
	case "r2l":
		return random.NewLocal(seed), nil
	case "sa":
		return anneal.New(seed), nil
	case "portfolio":
		return NewPortfolio(clusterK, seed), nil
	}
	return nil, fmt.Errorf("advisor: unknown solver %q", name)
}

// NewPortfolio builds the default solver portfolio: CP, the G2 greedy, the
// R2L local search and three differently-seeded simulated-annealing
// restarts, in that order, each a single search racing on its own goroutine
// under one shared deployment-time budget. The portfolio is the only
// fan-out at solve time. Members are the ones that win: MIP and G1 never
// decided a portfolio result on the measured corpus
// (TestPortfolioDroppedMembersNeverDecide) and stay available by name only.
// One list serves both objectives: CP, the one member tied to an objective,
// drops out of longest-path problems by erroring, and the portfolio keeps
// the best of the rest.
func NewPortfolio(clusterK int, seed int64) *solver.Portfolio {
	return solver.NewPortfolio(
		cp.New(clusterK, seed),
		greedy.New(greedy.G2),
		random.NewLocal(seed),
		anneal.New(seed),
		anneal.New(seed+0x51ed),
		anneal.New(seed+2*0x51ed),
	)
}

// WarmMatrixPrep builds in set the rounded set the named solver reads on a
// problem of the given objective, so that a solve over the same content
// finds it built; name and clusterK resolve as SolveStream resolves them.
// CP and the portfolio (through its CP member) round at their cluster
// count on longest-link problems only, and MIP only when clustered; no
// other solver reads the set. This is the one place that maps a solver to
// the cluster count it rounds at.
func WarmMatrixPrep(set *solver.MatrixPrep, name string, clusterK int, obj solver.Objective) error {
	name, k := StreamSolver(name, clusterK)
	if ((name == "cp" || name == "portfolio") && obj == solver.LongestLink) || (name == "mip" && k > 0) {
		_, err := set.RoundedSet(k)
		return err
	}
	return nil
}

// Advise runs the full ClouDiA pipeline against the provider: allocate,
// measure, search, terminate extras. It is StreamingAdvise's one-epoch
// case: the measurement publishes only its final epoch, and the paper's
// solver for the objective (unless SolverName overrides it) searches that
// epoch once with the whole budget. If any step after allocation fails,
// every allocated instance is terminated before returning — a failed
// tuning run must not leave the tenant paying for idle instances.
func Advise(prov *cloud.Provider, cfg Config) (*Report, error) {
	rep, err := advise(prov, StreamingConfig{Config: cfg}, true)
	if err != nil {
		return nil, err
	}
	return &rep.Report, nil
}

// advise is the one body behind Advise and StreamingAdvise: the Fig. 3
// loop over a streaming measurement. final selects batch advising: one
// final epoch, the paper's default solver, and a report carrying that
// solver's own name and result.
func advise(prov *cloud.Provider, cfg StreamingConfig, final bool) (rep *StreamingReport, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec := cfg.ObjectiveSpec.WithDefaults()
	n := cfg.Graph.NumNodes()

	// Step 1: allocate instances (Fig. 3, "Allocate Instances").
	total := OverAllocate(n, cfg.OverAllocation)
	instances, err := prov.RunInstances(total)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = terminateAll(prov, instances, err)
		}
	}()

	dur := cfg.MeasureDurationMS
	if dur == 0 {
		dur = 20 * float64(total)
	}
	def, epochMS := "portfolio", cfg.EpochMS
	if final {
		def, epochMS = paperSolver(cfg.Objective), dur
	} else if epochMS == 0 {
		epochMS = dur / 8
	}
	name, clusterK, budget := searchDefaults(cfg.SolverName, def, cfg.ClusterK, cfg.SolverBudget)
	roundBudget := cfg.RoundBudget
	if roundBudget.Unlimited() {
		// measure.Stream publishes intermediate epochs in [epochMS, dur)
		// plus the final one: ceil(dur/epochMS) rounds in total.
		rounds := int64(math.Ceil(dur / epochMS))
		if rounds < 1 {
			rounds = 1
		}
		roundBudget = solver.Budget{
			Time:  budget.Time / time.Duration(rounds),
			Nodes: budget.Nodes / rounds,
		}
		if budget.Time > 0 && roundBudget.Time <= 0 {
			roundBudget.Time = time.Millisecond
		}
		if budget.Nodes > 0 && roundBudget.Nodes <= 0 {
			roundBudget.Nodes = 1
		}
	}

	// Step 2: get measurements (Fig. 3, "Get Measurements") as matrix
	// epochs, each carrying the one spread matrix the search reads. Only
	// the percentile metrics need per-link quantile sketches; mean+sd
	// comes from the per-link moments the mean already keeps.
	var tailAlpha float64
	if spec.TailPercentile() > 0 {
		tailAlpha = measure.DefaultTailAlpha
	}
	st, err := measure.Stream(prov.Datacenter(), instances, measure.Options{
		Scheme:          spec.Scheme,
		DurationMS:      dur,
		Seed:            cfg.Seed,
		SnapshotEveryMS: epochMS,
		TailAlpha:       tailAlpha,
		Spread:          spec.spread(),
	})
	if err != nil {
		return nil, err
	}

	// Step 3: search deployment (Fig. 3, "Search Deployment"), one round per
	// epoch, while the measurement runs on: it publishes the next epoch
	// while a round searches the last, and pauses when one epoch is
	// pending. Every epoch gets a round, which preserves the per-epoch
	// convergence trajectory a real deployment would see. A failed round
	// stops the measurement before the run returns.
	out, err := SolveStream(st.Epochs, StreamSolveConfig{
		Graph:         cfg.Graph,
		ObjectiveSpec: cfg.ObjectiveSpec,
		SolverName:    name,
		ClusterK:      clusterK,
		RoundBudget:   roundBudget,
		Seed:          cfg.Seed,
	})
	st.Stop()
	measurement := st.Wait()
	if err != nil {
		return nil, err
	}

	// Step 4: terminate extra instances (Fig. 3, "Terminate Extra
	// Instances").
	used := make([]bool, total)
	for _, inst := range out.Deployment {
		used[inst] = true
	}
	var terminated []string
	for i, inst := range instances {
		if !used[i] {
			terminated = append(terminated, inst.ID)
		}
	}
	if err := prov.TerminateInstances(terminated); err != nil {
		return nil, err
	}

	assignments := make([]cloud.Instance, n)
	for node, inst := range out.Deployment {
		assignments[node] = instances[inst]
	}
	search, solverName := out.Search, "streaming-"+name
	if final {
		sol, err := NewSolver(name, clusterK, cfg.Seed)
		if err != nil {
			return nil, err
		}
		solverName = sol.Name()
	} else {
		search = &solver.Result{
			Deployment: out.Deployment,
			Cost:       out.Cost,
			Elapsed:    out.Rounds[len(out.Rounds)-1].Elapsed,
			Winner:     out.Winner(),
		}
	}
	rep = &StreamingReport{
		Report: Report{
			AllInstances:  instances,
			Deployment:    out.Deployment,
			Assignments:   assignments,
			TerminatedIDs: terminated,
			DefaultCost:   out.Problem.Cost(core.Identity(n)),
			TunedCost:     out.Cost,
			Measurement:   measurement,
			Search:        search,
			SolverName:    solverName,
		},
		Rounds:      out.Rounds,
		FirstAdvice: out.FirstAdvice,
	}
	return rep, nil
}

// terminateAll releases every instance after a failed run, preserving the
// original error and noting any cleanup failure alongside it.
func terminateAll(prov *cloud.Provider, instances []cloud.Instance, cause error) error {
	ids := make([]string, len(instances))
	for i, inst := range instances {
		ids[i] = inst.ID
	}
	if terr := prov.TerminateInstances(ids); terr != nil {
		return fmt.Errorf("%w (cleanup also failed: %v)", cause, terr)
	}
	return cause
}
