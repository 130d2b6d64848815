package bench

import (
	"fmt"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/solver/cp"
	"cloudia/internal/solver/mip"
	"cloudia/internal/stats"
	"cloudia/internal/topology"
	"cloudia/internal/workload"
)

// System figures: metric correlation and robustness (Figs. 10, 11), overall
// effectiveness across allocations (Fig. 12), and the over-allocation sweep
// (Fig. 13).

func init() {
	register("fig10", Fig10MetricCorrelation)
	register("fig11", Fig11MetricImprovement)
	register("fig12", Fig12OverallEffectiveness)
	register("fig13", Fig13OverAllocation)
}

// Fig10MetricCorrelation reproduces Fig. 10: per-link scatter of mean
// latency against mean+SD and against p99, on one representative allocation
// of 110 instances. Paper headline: correlated but not perfectly.
func Fig10MetricCorrelation(opts Options) (*Figure, error) {
	n := 110
	durMS := 4000.0
	if opts.Quick {
		n = 30
		durMS = 1500
	}
	dc, insts, err := allocate(topology.EC2Profile(), n, opts.Seed+110)
	if err != nil {
		return nil, err
	}
	res, err := measure.Run(dc, insts, measure.Options{
		Scheme: measure.Staged, DurationMS: durMS, Seed: opts.Seed + 10,
		TailAlpha: measure.DefaultTailAlpha,
	})
	if err != nil {
		return nil, err
	}
	p99m, err := res.TailMatrix(99)
	if err != nil {
		return nil, err
	}
	mean := res.MeanMatrix().OffDiagonal()
	msd := res.MeanPlusStdMatrix().OffDiagonal()
	p99 := p99m.OffDiagonal()

	fig := &Figure{
		ID: "fig10", Title: "Correlation between latency cost metrics",
		XLabel: "mean_ms", YLabel: "metric_ms",
	}
	// Subsample the scatter for readability.
	stride := len(mean)/500 + 1
	sMSD := Series{Name: "mean+SD"}
	sP99 := Series{Name: "99%"}
	for i := 0; i < len(mean); i += stride {
		sMSD.X = append(sMSD.X, mean[i])
		sMSD.Y = append(sMSD.Y, msd[i])
		sP99.X = append(sP99.X, mean[i])
		sP99.Y = append(sP99.Y, p99[i])
	}
	fig.Series = append(fig.Series, sMSD, sP99)
	rMSD, _ := stats.Pearson(mean, msd)
	rP99, _ := stats.Pearson(mean, p99)
	fig.note("Pearson(mean, mean+SD) = %.3f; Pearson(mean, p99) = %.3f (correlated, not perfectly)", rMSD, rP99)
	return fig, nil
}

// benchFleet is a reusable measured allocation for the workload experiments.
type benchFleet struct {
	dc    *topology.Datacenter
	insts []cloud.Instance
	meas  *measure.Result
}

func newBenchFleet(n int, measureMS float64, seed int64) (*benchFleet, error) {
	dc, insts, err := allocate(topology.EC2Profile(), n, seed)
	if err != nil {
		return nil, err
	}
	meas, err := measure.Run(dc, insts, measure.Options{
		Scheme: measure.Staged, DurationMS: measureMS, Seed: seed + 1,
		TailAlpha: measure.DefaultTailAlpha,
	})
	if err != nil {
		return nil, err
	}
	return &benchFleet{dc: dc, insts: insts, meas: meas}, nil
}

// solveDeployment searches a deployment for graph g on the fleet under the
// given metric and objective, using the paper's default solvers.
func (f *benchFleet) solveDeployment(g *core.Graph, obj solver.Objective, metric string, budget solver.Budget, seed int64) (core.Deployment, error) {
	var costs *core.CostMatrix
	switch metric {
	case "mean":
		costs = f.meas.MeanMatrix()
	case "mean+sd":
		costs = f.meas.MeanPlusStdMatrix()
	case "p99":
		var err error
		if costs, err = f.meas.TailMatrix(99); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: unknown metric %q", metric)
	}
	p, err := solver.NewProblem(g, costs, obj)
	if err != nil {
		return nil, err
	}
	var sol solver.Solver
	if obj == solver.LongestPath {
		sol = mip.New(0, seed)
	} else {
		sol = cp.New(20, seed)
	}
	res, err := sol.Solve(p, budget)
	if err != nil {
		return nil, err
	}
	return res.Deployment, nil
}

// benchWorkloads returns the three paper workloads at bench scale: the
// behavioral simulation (LL), aggregation query (LP), and key-value store
// (LL proxy).
func benchWorkloads(quick bool) []struct {
	w   workload.Workload
	obj solver.Objective
} {
	if quick {
		return []struct {
			w   workload.Workload
			obj solver.Objective
		}{
			{&workload.BehavioralSim{Rows: 3, Cols: 3, Ticks: 20}, solver.LongestLink},
			{&workload.AggregationQuery{Mids: 2, Leaves: 6, Queries: 20}, solver.LongestPath},
			{&workload.KVStore{Frontends: 3, Storage: 6, Queries: 40, TouchK: 2}, solver.LongestLink},
		}
	}
	// Paper scale: 100 nodes for the simulation and key-value store, 50 for
	// the aggregation query (Sect. 6.4.3).
	return []struct {
		w   workload.Workload
		obj solver.Objective
	}{
		{&workload.BehavioralSim{Rows: 10, Cols: 10, Ticks: 60}, solver.LongestLink},
		{&workload.AggregationQuery{Mids: 4, Leaves: 45, Queries: 150}, solver.LongestPath},
		{&workload.KVStore{Frontends: 10, Storage: 90, Queries: 300, TouchK: 20}, solver.LongestLink},
	}
}

// Fig11MetricImprovement reproduces Fig. 11: relative performance change of
// deployments optimized under mean+SD or p99 versus deployments optimized
// under mean, per workload. Paper headline: mean is robust; p99 hurts all
// three workloads; mean+SD mixed.
func Fig11MetricImprovement(opts Options) (*Figure, error) {
	budget := solver.Budget{Nodes: 1_500_000}
	if opts.Quick {
		budget = solver.Budget{Nodes: 100_000}
	}
	fig := &Figure{
		ID: "fig11", Title: "Relative improvement of alternative cost metrics vs mean",
		XLabel: "workload_idx", YLabel: "improvement_pct",
	}
	metrics := []string{"mean+sd", "p99"}
	series := make([]Series, len(metrics))
	for i, m := range metrics {
		series[i] = Series{Name: m}
	}
	var names []string
	for wi, entry := range benchWorkloads(opts.Quick) {
		g, err := entry.w.Graph()
		if err != nil {
			return nil, err
		}
		fleet, err := newBenchFleet(g.NumNodes()+g.NumNodes()/10+1, 30*float64(g.NumNodes()), opts.Seed+int64(111+wi))
		if err != nil {
			return nil, err
		}
		base, err := fleet.solveDeployment(g, entry.obj, "mean", budget, opts.Seed+11)
		if err != nil {
			return nil, err
		}
		basePerf, err := entry.w.Run(fleet.dc, fleet.insts, base, opts.Seed+12)
		if err != nil {
			return nil, err
		}
		for mi, metric := range metrics {
			d, err := fleet.solveDeployment(g, entry.obj, metric, budget, opts.Seed+11)
			if err != nil {
				return nil, err
			}
			perf, err := entry.w.Run(fleet.dc, fleet.insts, d, opts.Seed+12)
			if err != nil {
				return nil, err
			}
			imp := (basePerf - perf) / basePerf * 100
			series[mi].X = append(series[mi].X, float64(wi+1))
			series[mi].Y = append(series[mi].Y, imp)
			fig.note("%s under %s: %+.1f%% vs mean", entry.w.Name(), metric, imp)
		}
		names = append(names, entry.w.Name())
	}
	fig.Series = series
	fig.note("workloads: 1=%s 2=%s 3=%s (paper: differences small; mean is robust)", names[0], names[1], names[2])
	return fig, nil
}

// Fig12OverallEffectiveness reproduces Fig. 12: percentage reduction in
// time-to-solution / response time of the ClouDiA deployment versus the
// default deployment, over five allocations and three workloads. Paper
// headline: 15-55% reduction.
func Fig12OverallEffectiveness(opts Options) (*Figure, error) {
	allocations := 5
	budget := solver.Budget{Nodes: 1_500_000}
	if opts.Quick {
		allocations = 2
		budget = solver.Budget{Nodes: 100_000}
	}
	fig := &Figure{
		ID: "fig12", Title: "Time reduction over allocations (ClouDiA vs default)",
		XLabel: "allocation", YLabel: "reduction_pct",
	}
	wls := benchWorkloads(opts.Quick)
	series := make([]Series, len(wls))
	minRed, maxRed := 100.0, -100.0
	for wi, entry := range wls {
		series[wi] = Series{Name: entry.w.Name()}
		g, err := entry.w.Graph()
		if err != nil {
			return nil, err
		}
		n := g.NumNodes()
		for a := 0; a < allocations; a++ {
			fleet, err := newBenchFleet(n+n/10+1, 30*float64(n), opts.Seed+int64(112+wi*31+a*7))
			if err != nil {
				return nil, err
			}
			tuned, err := fleet.solveDeployment(g, entry.obj, "mean", budget, opts.Seed+int64(a))
			if err != nil {
				return nil, err
			}
			defPerf, err := entry.w.Run(fleet.dc, fleet.insts, core.Identity(n), opts.Seed+13)
			if err != nil {
				return nil, err
			}
			tunedPerf, err := entry.w.Run(fleet.dc, fleet.insts, tuned, opts.Seed+13)
			if err != nil {
				return nil, err
			}
			red := (defPerf - tunedPerf) / defPerf * 100
			if red < minRed {
				minRed = red
			}
			if red > maxRed {
				maxRed = red
			}
			series[wi].X = append(series[wi].X, float64(a+1))
			series[wi].Y = append(series[wi].Y, red)
		}
	}
	fig.Series = series
	fig.note("reduction range across workloads and allocations: %.1f%% to %.1f%% (paper: 15-55%%)", minRed, maxRed)
	return fig, nil
}

// Fig13OverAllocation reproduces Fig. 13: behavioral-simulation
// time-to-solution for the default deployment versus ClouDiA deployments
// searched over increasingly over-allocated instance pools. Paper headline:
// 16% improvement with no over-allocation, 28% at 10%, 38% at 50%; the first
// 10% of extra instances buys the most.
func Fig13OverAllocation(opts Options) (*Figure, error) {
	w := &workload.BehavioralSim{Rows: 10, Cols: 10, Ticks: 60}
	budget := solver.Budget{Nodes: 1_500_000}
	ratios := []float64{0, 0.1, 0.2, 0.3, 0.5}
	if opts.Quick {
		w = &workload.BehavioralSim{Rows: 3, Cols: 3, Ticks: 20}
		budget = solver.Budget{Nodes: 100_000}
		ratios = []float64{0, 0.2, 0.5}
	}
	g, err := w.Graph()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	maxInstances := n + n/2
	fleet, err := newBenchFleet(maxInstances, 30*float64(maxInstances), opts.Seed+113)
	if err != nil {
		return nil, err
	}
	defPerf, err := w.Run(fleet.dc, fleet.insts[:n], core.Identity(n), opts.Seed+14)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig13", Title: "Time-to-solution vs over-allocation ratio",
		XLabel: "over_allocation_pct", YLabel: "time_to_solution_ms",
	}
	def := Series{Name: "Default"}
	tuned := Series{Name: "ClouDiA"}
	meanAll := fleet.meas.MeanMatrix()
	for _, r := range ratios {
		avail := n + int(float64(n)*r)
		if avail > maxInstances {
			avail = maxInstances
		}
		// Restrict the cost matrix to the first avail instances, mirroring
		// the paper's use of the first (1+x)*100 instances in EC2 order.
		sub := core.NewCostMatrix(avail)
		for i := 0; i < avail; i++ {
			for j := 0; j < avail; j++ {
				if i != j {
					sub.Set(i, j, meanAll.At(i, j))
				}
			}
		}
		p, err := solver.NewProblem(g, sub, solver.LongestLink)
		if err != nil {
			return nil, err
		}
		res, err := cp.New(20, opts.Seed+15).Solve(p, budget)
		if err != nil {
			return nil, err
		}
		perf, err := w.Run(fleet.dc, fleet.insts[:avail], res.Deployment, opts.Seed+14)
		if err != nil {
			return nil, err
		}
		def.X = append(def.X, r*100)
		def.Y = append(def.Y, defPerf)
		tuned.X = append(tuned.X, r*100)
		tuned.Y = append(tuned.Y, perf)
		fig.note("over-allocation %.0f%%: improvement %.1f%%", r*100, (defPerf-perf)/defPerf*100)
	}
	fig.Series = append(fig.Series, def, tuned)
	return fig, nil
}
