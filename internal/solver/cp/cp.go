// Package cp implements the paper's constraint programming approach to the
// Longest Link Node Deployment Problem (Sect. 4.2). The solver exploits the
// relation between LLNDP and subgraph isomorphism: a deployment of cost at
// most c exists iff the threshold graph Gc — instances joined by links of
// cost <= c — contains a subgraph isomorphic to the communication graph. The
// solver iterates: find any deployment below the current best cost, tighten
// the threshold to the next lower distinct cost value, and repeat until the
// feasibility search proves no cheaper deployment exists. Fewer distinct
// cost values mean fewer iterations, which is why k-means cost clustering
// (Sect. 6.3.1) speeds up CP.
//
// The feasibility search is backtracking with alldifferent forward checking,
// adjacency propagation, dynamic smallest-domain variable selection, and the
// root-level degree/neighbourhood compatibility filtering of Zampelli et
// al. [70] that the paper adopts.
//
// The engine is persistent across the descent (see descent.go): thresholds
// only decrease, so the threshold graphs are tightened incrementally from a
// cost-sorted pair list instead of being rebuilt per iteration, root domains
// and the degree filter are carried forward, and the backtracking search
// (engine.go) runs out of preallocated arenas with zero steady-state
// allocations. Each Solve runs on the calling goroutine alone: running
// several searches side by side is the portfolio's job, not the solver's.
package cp

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// Solver is the CP solver for LLNDP.
type Solver struct {
	// ClusterK rounds link costs to at most K clusters before searching
	// (<= 0 disables clustering). The reported cost is always evaluated on
	// the original matrix.
	ClusterK int
	// Seed drives the bootstrap sampling.
	Seed int64
	// DisableDegreeFilter turns off root-level compatibility filtering
	// (ablation).
	DisableDegreeFilter bool
	// BootstrapSamples is the number of random deployments used to seed the
	// incumbent; zero selects the paper's 10.
	BootstrapSamples int
}

// New returns a CP solver with the given cost-cluster count (<= 0 disables
// clustering).
func New(clusterK int, seed int64) *Solver { return &Solver{ClusterK: clusterK, Seed: seed} }

// Name implements solver.Solver.
func (s *Solver) Name() string {
	if s.ClusterK > 0 {
		return fmt.Sprintf("CP(k=%d)", s.ClusterK)
	}
	return "CP"
}

// Solve implements solver.Solver. Only the LongestLink objective is
// supported: the longest-path objective does not decompose into a series of
// subgraph isomorphism feasibility problems (Sect. 4.4), so LPNDP is handled
// by the MIP solver instead.
func (s *Solver) Solve(p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	return s.SolveContext(context.Background(), p, budget)
}

// SolveContext implements solver.ContextSolver: the search additionally
// stops once ctx is cancelled, reporting the incumbent.
func (s *Solver) SolveContext(ctx context.Context, p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	if p.Objective != solver.LongestLink {
		return nil, fmt.Errorf("cp: unsupported objective %q (use mip for longest-path)", p.Objective)
	}
	clock := solver.NewClockCtx(ctx, budget)

	// All derived artifacts come from the problem's shared preprocessing
	// cache: the clustered matrix and cost-sorted pair list are computed
	// once per (problem, k) and the bootstrap incumbent once per
	// (samples, seed), no matter how many portfolio members or repeated
	// Solve calls ask for them.
	prep := p.Prep()
	search, pairs, err := prep.Rounded(s.ClusterK)
	if err != nil {
		return nil, err
	}

	nboot := s.BootstrapSamples
	if nboot == 0 {
		nboot = 10
	}
	best, _ := prep.Bootstrap(nboot, s.Seed)
	res := &solver.Result{
		Deployment: best,
		Cost:       p.Cost(best),
	}
	res.Trace = append(res.Trace, solver.TracePoint{Elapsed: clock.Elapsed(), Cost: res.Cost})

	thresholds := distinctCosts(pairs)
	if p.Graph.Weighted() {
		// The objective values live on the weighted scale: every distinct
		// weight class stretches the raw link costs, so the threshold
		// ladder is the union of w*CL over all weight classes.
		thresholds = weightedThresholds(thresholds, p.Graph)
	}
	bestSearchCost := core.LongestLink(best, p.Graph, search)

	d := newDescent(p, pairs, !s.DisableDegreeFilter && !p.Graph.Weighted())

	for {
		// Next threshold: the largest distinct cost strictly below the
		// incumbent's cost under the search matrix.
		idx := sort.SearchFloat64s(thresholds, bestSearchCost) - 1
		if idx < 0 {
			// No lower threshold exists; with exact costs the incumbent is
			// optimal. Clustering approximates the objective, so optimality
			// holds only for the rounded costs.
			res.Optimal = s.ClusterK <= 0
			break
		}
		if clock.Expired() {
			break
		}
		c := thresholds[idx]
		feasible, dep, exhausted := d.feasible(c, clock)
		if feasible {
			best = dep
			bestSearchCost = core.LongestLink(best, p.Graph, search)
			res.Deployment = best
			res.Cost = p.Cost(best)
			res.Trace = append(res.Trace, solver.TracePoint{
				Elapsed: clock.Elapsed(), Nodes: clock.Nodes(), Cost: res.Cost,
			})
			continue
		}
		if exhausted {
			// Proved no deployment of cost <= c exists: incumbent optimal
			// (under the search matrix).
			res.Optimal = s.ClusterK <= 0
		}
		break
	}
	res.Nodes = clock.Nodes()
	res.Elapsed = clock.Elapsed()
	return res, nil
}

// weightedThresholds returns the sorted distinct values of w*CL over all
// weight classes w and the distinct raw link costs CL, by sort+compact — a
// float-keyed map would hash-box every product and return them unordered.
func weightedThresholds(raw []float64, g *core.Graph) []float64 {
	ws := g.DistinctWeights()
	out := make([]float64, 0, len(raw)*len(ws))
	for _, w := range ws {
		for _, v := range raw {
			out = append(out, w*v)
		}
	}
	sort.Float64s(out)
	return slices.Compact(out)
}
