// Package solver defines the optimization framework for the node deployment
// problem (Sect. 3.3): a Problem couples a communication graph, a measured
// cost matrix, and one of the two deployment cost objectives; Solver
// implementations search the space of injective node-to-instance mappings.
// Sub-packages provide the paper's search techniques: greedy (G1/G2),
// random (R1/R2), constraint programming (CP), branch-and-bound MIP, and a
// simulated-annealing extension.
package solver

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cloudia/internal/core"
)

// Objective selects the deployment cost function.
type Objective string

// The two deployment cost classes of Sect. 3.3.
const (
	LongestLink Objective = "longest-link" // Class 1: max edge cost (LLNDP)
	LongestPath Objective = "longest-path" // Class 2: max path cost sum (LPNDP)
)

// Problem is one node deployment problem instance.
type Problem struct {
	Graph     *core.Graph
	Costs     *core.CostMatrix
	Objective Objective

	// Tie, when non-nil, is a secondary cost matrix for lexicographic
	// tie-breaking: search optimizes Costs, and candidates of equal primary
	// cost are ranked by TieCost. The multi-objective streaming mode sets
	// Costs to a percentile matrix and Tie to the mean matrix ("optimize
	// p99, tie-break on mean"). Solvers ignore Tie during search — only
	// winner selection (Portfolio, SolveStream incumbents) consults it, so
	// all Prep artifacts remain keyed off Costs alone.
	Tie *core.CostMatrix

	order []core.NodeID // topological order, cached for LongestPath

	prepOnce sync.Once
	prep     *Prep
}

// NewProblem validates and packages a problem instance. The instance set
// must be at least as large as the node set, and LongestPath requires an
// acyclic communication graph.
func NewProblem(g *core.Graph, m *core.CostMatrix, obj Objective) (*Problem, error) {
	if g == nil || m == nil {
		return nil, fmt.Errorf("solver: nil graph or cost matrix")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() > m.Size() {
		return nil, fmt.Errorf("solver: %d nodes exceed %d instances", g.NumNodes(), m.Size())
	}
	// Build the incidence caches up front: the delta evaluators and the
	// parallel solvers read them from multiple goroutines, so the lazy
	// build must not race.
	g.EnsureIncidence()
	p := &Problem{Graph: g, Costs: m, Objective: obj}
	switch obj {
	case LongestLink:
	case LongestPath:
		order, err := g.TopoOrder()
		if err != nil {
			return nil, err
		}
		p.order = order
	default:
		return nil, fmt.Errorf("solver: unknown objective %q", obj)
	}
	return p, nil
}

// NewProblemTie is NewProblem plus a secondary tie-break matrix: deployment
// search runs on primary alone, and equal-primary-cost candidates are
// ranked by their cost under tie. tie must match primary's size.
func NewProblemTie(g *core.Graph, primary, tie *core.CostMatrix, obj Objective) (*Problem, error) {
	p, err := NewProblem(g, primary, obj)
	if err != nil {
		return nil, err
	}
	if tie != nil {
		if err := validateTie(primary, tie); err != nil {
			return nil, err
		}
		p.Tie = tie
	}
	return p, nil
}

func validateTie(primary, tie *core.CostMatrix) error {
	if err := tie.Validate(); err != nil {
		return fmt.Errorf("solver: tie-break matrix: %w", err)
	}
	if tie.Size() != primary.Size() {
		return fmt.Errorf("solver: tie-break matrix size %d != primary %d", tie.Size(), primary.Size())
	}
	return nil
}

// NumNodes reports |N|, the number of application nodes.
func (p *Problem) NumNodes() int { return p.Graph.NumNodes() }

// NumInstances reports |S|, the number of allocated instances.
func (p *Problem) NumInstances() int { return p.Costs.Size() }

// Cost evaluates the deployment cost of d under the problem's objective.
func (p *Problem) Cost(d core.Deployment) float64 {
	switch p.Objective {
	case LongestLink:
		return core.LongestLink(d, p.Graph, p.Costs)
	case LongestPath:
		return core.LongestPathWithOrder(d, p.Graph, p.Costs, p.order)
	}
	panic("solver: unreachable objective")
}

// TieCost evaluates the deployment cost of d under the problem's tie-break
// matrix; with no tie matrix it reports 0 for every deployment, so a
// lexicographic (Cost, TieCost) comparison degrades to pure primary cost.
func (p *Problem) TieCost(d core.Deployment) float64 {
	if p.Tie == nil {
		return 0
	}
	switch p.Objective {
	case LongestLink:
		return core.LongestLink(d, p.Graph, p.Tie)
	case LongestPath:
		return core.LongestPathWithOrder(d, p.Graph, p.Tie, p.order)
	}
	panic("solver: unreachable objective")
}

// Better reports whether candidate res strictly improves on incumbent under
// the lexicographic (Cost, TieCost) order: lower primary cost wins, and on
// exact primary ties the lower tie-break cost wins. Both deployments are
// evaluated with the problem's own matrices, so results carried over from a
// previous epoch compare on current costs.
func (p *Problem) Better(cand, incumbent core.Deployment, candCost, incumbentCost float64) bool {
	if candCost != incumbentCost {
		return candCost < incumbentCost
	}
	if p.Tie == nil {
		return false
	}
	return p.TieCost(cand) < p.TieCost(incumbent)
}

// TopoOrder returns the cached topological order for LongestPath problems,
// or nil for LongestLink problems.
func (p *Problem) TopoOrder() []core.NodeID { return p.order }

// Prep returns the problem's shared preprocessing cache, creating it on
// first use. Safe for concurrent use; all artifacts are memoized per
// problem, so every portfolio member and repeated solver call shares one
// set of derived structures.
func (p *Problem) Prep() *Prep {
	p.prepOnce.Do(func() { p.prep = newPrep(p) })
	return p.prep
}

// Budget bounds a solver run. A zero field means unlimited on that axis; at
// least one axis must be bounded for solvers that search exhaustively.
type Budget struct {
	// Time is the wall-clock limit.
	Time time.Duration
	// Nodes caps search-tree node expansions (or candidate evaluations for
	// sampling solvers), making runs deterministic regardless of machine
	// speed.
	Nodes int64
}

// Unlimited reports whether the budget bounds nothing.
func (b Budget) Unlimited() bool { return b.Time == 0 && b.Nodes == 0 }

// TracePoint records a solution improvement during search, for the
// convergence plots of Figs. 6, 7, and 9.
type TracePoint struct {
	Elapsed time.Duration
	Nodes   int64 // search nodes expanded when the improvement was found
	Cost    float64
}

// Result is the outcome of one solver run.
type Result struct {
	Deployment core.Deployment
	Cost       float64
	// Optimal is true when the solver proved no better deployment exists
	// (exhaustive search completed within budget).
	Optimal bool
	// Nodes is the number of search nodes expanded (or candidates tried).
	Nodes int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Trace records each improvement, ending with the final solution.
	Trace []TracePoint
	// Winner names the member that produced the deployment when the result
	// comes from a portfolio run; empty otherwise.
	Winner string
}

// Solver searches for low-cost deployments.
type Solver interface {
	// Name identifies the technique (G1, G2, R1, R2, CP, MIP, SA).
	Name() string
	// Solve searches within budget, starting from scratch. Implementations
	// must return a valid deployment even on a tiny budget (falling back to
	// a random or identity deployment) and must never return an error for a
	// well-formed problem.
	Solve(p *Problem, budget Budget) (*Result, error)
}

// Sampler draws uniformly random injective deployments without allocating:
// it owns a permutation buffer that is partially re-shuffled (Fisher-Yates on
// the first |N| slots) per sample. A Sampler is not safe for concurrent use;
// concurrent searches hold one each.
type Sampler struct {
	n    int
	perm []int
}

// NewSampler returns a sampler for the problem's node and instance counts.
func NewSampler(p *Problem) *Sampler {
	s := &Sampler{n: p.NumNodes(), perm: make([]int, p.NumInstances())}
	for i := range s.perm {
		s.perm[i] = i
	}
	return s
}

// Sample fills d (which must have length NumNodes) with a uniformly random
// injective deployment.
func (s *Sampler) Sample(rng *rand.Rand, d core.Deployment) {
	m := len(s.perm)
	for i := 0; i < s.n; i++ {
		j := i + rng.Intn(m-i)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		d[i] = s.perm[i]
	}
}

// RandomDeployment returns a uniformly random injective deployment of the
// problem's nodes onto its instances. Loops drawing many samples should hold
// a Sampler instead to reuse its permutation buffer.
func RandomDeployment(p *Problem, rng *rand.Rand) core.Deployment {
	d := make(core.Deployment, p.NumNodes())
	NewSampler(p).Sample(rng, d)
	return d
}

// Bootstrap generates k random deployments and returns the best, the paper's
// initial-solution strategy for the solvers (Sect. 6.3.1, best of 10). Only
// two deployments are ever allocated regardless of k.
func Bootstrap(p *Problem, k int, rng *rand.Rand) (core.Deployment, float64) {
	if k < 1 {
		k = 1
	}
	s := NewSampler(p)
	best := make(core.Deployment, p.NumNodes())
	cand := make(core.Deployment, p.NumNodes())
	s.Sample(rng, best)
	bestCost := p.Cost(best)
	for i := 1; i < k; i++ {
		s.Sample(rng, cand)
		if c := p.Cost(cand); c < bestCost {
			best, cand = cand, best
			bestCost = c
		}
	}
	return best, bestCost
}

// Clock tracks a solver run's budget, optionally tied to a context so a
// portfolio runner can cancel members early.
type Clock struct {
	start     time.Time
	budget    Budget
	nodes     int64
	nextCheck int64
	ctx       context.Context
}

// NewClock starts tracking a run against budget.
func NewClock(budget Budget) *Clock {
	//cloudia:nondet-ok the Clock IS the wall-time authority; every budget read funnels through it
	return &Clock{start: time.Now(), budget: budget, nextCheck: 1}
}

// NewClockCtx starts tracking a run against budget and the context: the
// budget reads as exhausted once ctx is cancelled. A nil ctx behaves like
// NewClock.
func NewClockCtx(ctx context.Context, budget Budget) *Clock {
	//cloudia:nondet-ok the Clock IS the wall-time authority; every budget read funnels through it
	return &Clock{start: time.Now(), budget: budget, nextCheck: 1, ctx: ctx}
}

// Tick consumes one search node and reports whether the budget is exhausted.
// The wall clock and context are consulted on an exponential warm-up
// schedule (ticks 1, 2, 4, ... 1024) and every 1024 ticks thereafter: cheap
// for solvers that tick millions of times per second, yet solvers whose
// nodes cost milliseconds (CP/MIP propagation) still notice an expired time
// budget within a few nodes instead of overshooting by three orders of
// magnitude.
func (c *Clock) Tick() bool {
	c.nodes++
	if c.budget.Nodes > 0 && c.nodes >= c.budget.Nodes {
		return true
	}
	if c.nodes >= c.nextCheck {
		if c.nextCheck <= 512 {
			c.nextCheck <<= 1
		} else {
			c.nextCheck = c.nodes + 1024
		}
		//cloudia:nondet-ok Clock-internal deadline check; node budgets, not wall time, carry determinism
		if c.budget.Time > 0 && time.Since(c.start) >= c.budget.Time {
			return true
		}
		if c.ctx != nil && c.ctx.Err() != nil {
			return true
		}
	}
	return false
}

// Expired reports whether the budget is exhausted without consuming a node.
func (c *Clock) Expired() bool {
	if c.budget.Nodes > 0 && c.nodes >= c.budget.Nodes {
		return true
	}
	if c.ctx != nil && c.ctx.Err() != nil {
		return true
	}
	//cloudia:nondet-ok Clock-internal deadline check; node budgets, not wall time, carry determinism
	return c.budget.Time > 0 && time.Since(c.start) >= c.budget.Time
}

// Nodes reports the nodes consumed so far.
func (c *Clock) Nodes() int64 { return c.nodes }

// Elapsed reports wall-clock time since the run started.
//
//cloudia:nondet-ok Elapsed is reporting-only; no search decision may read it
func (c *Clock) Elapsed() time.Duration { return time.Since(c.start) }
