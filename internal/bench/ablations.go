package bench

import (
	"time"

	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/solver/anneal"
	"cloudia/internal/solver/cp"
	"cloudia/internal/solver/random"
	"cloudia/internal/stats"
	"cloudia/internal/topology"
)

// Ablations for the design choices DESIGN.md calls out. These are not paper
// figures; they isolate the mechanisms behind them.

func init() {
	register("ablation-degreefilter", AblationDegreeFilter)
	register("ablation-contention", AblationContention)
	register("ablation-sa", AblationSimulatedAnnealing)
	register("ablation-clusterk", AblationClusterK)
}

// AblationDegreeFilter measures the effect of the root-level degree /
// neighbourhood compatibility filtering on CP search effort: nodes expanded
// and final cost with and without the filter, same budget.
func AblationDegreeFilter(opts Options) (*Figure, error) {
	nInst, rows, cols := 60, 6, 9
	budget := solver.Budget{Time: time.Second}
	if opts.Quick {
		nInst, rows, cols = 30, 5, 5
		budget = solver.Budget{Time: 150 * time.Millisecond}
	}
	p, err := llProblem(nInst, rows, cols, opts.Seed+201)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "ablation-degreefilter", Title: "CP degree/neighbourhood filtering ablation",
		XLabel: "config_idx", YLabel: "final_cost_ms",
	}
	s := Series{Name: "final cost"}
	nodes := Series{Name: "search nodes"}
	for i, disable := range []bool{false, true} {
		sol := &cp.Solver{ClusterK: 20, Seed: opts.Seed + 21, DisableDegreeFilter: disable}
		res, err := sol.Solve(p, budget)
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, res.Cost)
		nodes.X = append(nodes.X, float64(i+1))
		nodes.Y = append(nodes.Y, float64(res.Nodes))
		name := "with filter"
		if disable {
			name = "without filter"
		}
		fig.note("%s: cost %.3f, %d search nodes", name, res.Cost, res.Nodes)
	}
	fig.Series = append(fig.Series, s, nodes)
	return fig, nil
}

// AblationContention verifies the mechanism behind Fig. 4: with replier-side
// contention switched (effectively) off, the uncoordinated scheme's accuracy
// approaches staged accuracy — interference, not parallelism itself, is what
// costs accuracy.
func AblationContention(opts Options) (*Figure, error) {
	n := 30
	durMS := 4000.0
	if opts.Quick {
		n = 14
		durMS = 1500
	}
	dc, insts, err := allocate(topology.EC2Profile(), n, opts.Seed+202)
	if err != nil {
		return nil, err
	}
	baseline, err := measure.Run(dc, insts, measure.Options{
		Scheme: measure.Token, DurationMS: 8 * durMS, Seed: opts.Seed + 22,
	})
	if err != nil {
		return nil, err
	}
	base := stats.NormalizeUnit(baseline.MeanMatrix().OffDiagonal())

	p90Of := func(o measure.Options) (float64, error) {
		res, err := measure.Run(dc, insts, o)
		if err != nil {
			return 0, err
		}
		est := stats.NormalizeUnit(res.MeanMatrix().OffDiagonal())
		errs, err := stats.RelativeErrors(est, base)
		if err != nil {
			return 0, err
		}
		return stats.Percentile(errs, 90)
	}
	withC, err := p90Of(measure.Options{
		Scheme: measure.Uncoordinated, DurationMS: durMS, Seed: opts.Seed + 23,
	})
	if err != nil {
		return nil, err
	}
	withoutC, err := p90Of(measure.Options{
		Scheme: measure.Uncoordinated, DurationMS: durMS, Seed: opts.Seed + 23,
		ContentionScale: 1e-9, ContentionSpikeProb: 1e-12, ContentionSpikeScale: 1e-9,
	})
	if err != nil {
		return nil, err
	}
	staged, err := p90Of(measure.Options{
		Scheme: measure.Staged, DurationMS: durMS, Seed: opts.Seed + 23,
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "ablation-contention", Title: "Uncoordinated-scheme error with and without contention",
		XLabel: "config_idx", YLabel: "p90_relative_error",
	}
	fig.Series = append(fig.Series, Series{
		Name: "p90 error",
		X:    []float64{1, 2, 3},
		Y:    []float64{withC, withoutC, staged},
	})
	fig.note("uncoordinated with contention: %.4f; without: %.4f; staged: %.4f", withC, withoutC, staged)
	fig.note("removing contention closes most of the gap to staged")
	return fig, nil
}

// AblationSimulatedAnnealing compares the SA extension against R2 under the
// same node budget on LLNDP.
func AblationSimulatedAnnealing(opts Options) (*Figure, error) {
	nInst, rows, cols := 50, 5, 9
	budget := solver.Budget{Nodes: 400_000}
	allocations := 5
	if opts.Quick {
		nInst, rows, cols = 20, 3, 6
		budget = solver.Budget{Nodes: 40_000}
		allocations = 2
	}
	var saSum, r2Sum float64
	for a := 0; a < allocations; a++ {
		p, err := llProblem(nInst, rows, cols, opts.Seed+int64(203+a*11))
		if err != nil {
			return nil, err
		}
		sa, err := anneal.New(opts.Seed+int64(a)).Solve(p, budget)
		if err != nil {
			return nil, err
		}
		r2, err := random.NewR2(opts.Seed+int64(a)).Solve(p, budget)
		if err != nil {
			return nil, err
		}
		saSum += sa.Cost
		r2Sum += r2.Cost
	}
	fig := &Figure{
		ID: "ablation-sa", Title: "Simulated annealing vs R2 (same node budget)",
		XLabel: "technique_idx", YLabel: "mean_cost_ms",
	}
	fig.Series = append(fig.Series, Series{
		Name: "mean cost",
		X:    []float64{1, 2},
		Y:    []float64{saSum / float64(allocations), r2Sum / float64(allocations)},
	})
	fig.note("SA %.3f vs R2 %.3f over %d allocations", saSum/float64(allocations), r2Sum/float64(allocations), allocations)
	return fig, nil
}

// AblationClusterK sweeps the CP cost-cluster count, extending Fig. 6 to a
// full curve of final cost and time-to-best against k.
func AblationClusterK(opts Options) (*Figure, error) {
	nInst, rows, cols := 60, 6, 9
	budget := solver.Budget{Time: time.Second}
	ks := []int{5, 10, 20, 40, -1}
	if opts.Quick {
		nInst, rows, cols = 24, 4, 5
		budget = solver.Budget{Time: 150 * time.Millisecond}
		ks = []int{5, 20, -1}
	}
	p, err := llProblem(nInst, rows, cols, opts.Seed+204)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "ablation-clusterk", Title: "CP final cost and time-to-best vs cluster count",
		XLabel: "k", YLabel: "value",
	}
	cost := Series{Name: "final cost (ms)"}
	ttb := Series{Name: "time to best (ms)"}
	for _, k := range ks {
		res, err := cp.New(k, opts.Seed+24).Solve(p, budget)
		if err != nil {
			return nil, err
		}
		kx := float64(k)
		if k < 0 {
			kx = 1000 // sentinel for "no clustering" on the x axis
		}
		cost.X = append(cost.X, kx)
		cost.Y = append(cost.Y, res.Cost)
		last := res.Trace[len(res.Trace)-1]
		ttb.X = append(ttb.X, kx)
		ttb.Y = append(ttb.Y, float64(last.Elapsed)/float64(time.Millisecond))
		fig.note("k=%d: cost %.3f, time-to-best %.1f ms", k, res.Cost, float64(last.Elapsed)/float64(time.Millisecond))
	}
	fig.Series = append(fig.Series, cost, ttb)
	return fig, nil
}
