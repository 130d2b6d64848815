package advisor

import (
	"fmt"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
)

// This file implements the iterative re-deployment extension of Sect. 2.2.1:
// when network conditions change over time (the optimal plan is no longer
// optimal), ClouDiA can iterate its architecture — get new measurements,
// search for a new plan, re-deploy the application. The paper leaves this as
// an envisioned mode because public clouds lacked VM live migration; here
// the migration cost is modelled explicitly, so the decision "is
// re-deploying worth it?" is part of the loop.

// RedeployConfig drives a long-running adaptive deployment session.
type RedeployConfig struct {
	// Graph and Objective define the deployment problem (as in Config).
	Graph     *core.Graph
	Objective solver.Objective
	// OverAllocation is applied once at session start. The extra instances
	// are retained for the whole session: they are the freedom future
	// re-deployments exploit. (Terminating them, as one-shot ClouDiA does,
	// would forfeit adaptation.)
	OverAllocation float64
	// PeriodHours is the re-measurement interval; Periods is how many
	// periods to run.
	PeriodHours float64
	Periods     int
	// MinImprovement is the predicted relative cost reduction required to
	// trigger a re-deployment (hysteresis against churn). Zero selects 10%.
	MinImprovement float64
	// MigrationCostPerNode, in deployment-cost units (ms), is charged —
	// amortized over one period — for every node that moves, modelling
	// state-migration downtime. It participates in the re-deploy decision.
	MigrationCostPerNode float64
	// MeasureDurationMS and SolverBudget mirror Config; zeros select the
	// same defaults.
	MeasureDurationMS float64
	SolverBudget      solver.Budget
	SolverName        string
	ClusterK          int
	Seed              int64
}

// PeriodOutcome records one re-measurement period.
type PeriodOutcome struct {
	Hours float64
	// StaticCost is the cost of the initial (period-0) plan under this
	// period's measured network.
	StaticCost float64
	// AdaptiveCost is the cost of the adaptive plan after any re-deployment
	// this period, including the amortized migration charge.
	AdaptiveCost float64
	// Redeployed reports whether the adaptive plan changed this period, and
	// MovedNodes how many nodes migrated.
	Redeployed bool
	MovedNodes int
}

// RedeployReport summarizes an adaptive session.
type RedeployReport struct {
	Instances     []cloud.Instance
	Initial       core.Deployment
	Final         core.Deployment
	Periods       []PeriodOutcome
	Redeployments int
	TotalMoves    int
}

// MeanStaticCost averages the static plan's cost over all periods.
func (r *RedeployReport) MeanStaticCost() float64 {
	return r.meanCost(func(p PeriodOutcome) float64 { return p.StaticCost })
}

// MeanAdaptiveCost averages the adaptive plan's cost over all periods.
func (r *RedeployReport) MeanAdaptiveCost() float64 {
	return r.meanCost(func(p PeriodOutcome) float64 { return p.AdaptiveCost })
}

func (r *RedeployReport) meanCost(f func(PeriodOutcome) float64) float64 {
	if len(r.Periods) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range r.Periods {
		sum += f(p)
	}
	return sum / float64(len(r.Periods))
}

// RunRedeploy executes the adaptive session against the provider. Every
// configuration field is checked before an instance is allocated, as
// Advise checks its Config. If any step after allocation fails, every
// allocated instance is terminated before returning, mirroring Advise.
func RunRedeploy(prov *cloud.Provider, cfg RedeployConfig) (rep *RedeployReport, err error) {
	check := Config{
		Graph:          cfg.Graph,
		ObjectiveSpec:  ObjectiveSpec{Objective: cfg.Objective},
		OverAllocation: cfg.OverAllocation,
		SolverName:     cfg.SolverName,
	}
	if err := check.validate(); err != nil {
		return nil, err
	}
	if cfg.PeriodHours <= 0 || cfg.Periods <= 0 {
		return nil, fmt.Errorf("advisor: non-positive period configuration")
	}
	if cfg.MinImprovement == 0 {
		cfg.MinImprovement = 0.10
	}
	if cfg.MinImprovement < 0 || cfg.MigrationCostPerNode < 0 {
		return nil, fmt.Errorf("advisor: negative re-deployment thresholds")
	}
	total := OverAllocate(cfg.Graph.NumNodes(), cfg.OverAllocation)
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
	name, clusterK, budget := searchDefaults(cfg.SolverName, paperSolver(cfg.Objective), cfg.ClusterK, cfg.SolverBudget)

	// solveAt measures the network at the given hour and searches a plan:
	// the one measure→advise pipeline with a single final epoch, solved in
	// one round with the whole budget. The problem is returned so each
	// period's cost evaluations reuse it instead of rebuilding an identical
	// problem from the same matrix.
	solveAt := func(hours float64, seed int64) (*solver.Problem, core.Deployment, error) {
		st, err := measure.Stream(prov.Datacenter(), instances, measure.Options{
			Scheme:          measure.Staged,
			DurationMS:      dur,
			Seed:            seed,
			StartHours:      hours,
			SnapshotEveryMS: dur,
		})
		if err != nil {
			return nil, nil, err
		}
		out, err := SolveStream(st.Epochs, StreamSolveConfig{
			Graph:         cfg.Graph,
			ObjectiveSpec: ObjectiveSpec{Objective: cfg.Objective},
			SolverName:    name,
			ClusterK:      clusterK,
			RoundBudget:   budget,
			Seed:          seed,
		})
		// A failed search reads no more epochs; Stop ends the measurement
		// so that Wait returns.
		st.Stop()
		st.Wait()
		if err != nil {
			return nil, nil, err
		}
		return out.Problem, out.Deployment, nil
	}

	_, initial, err := solveAt(0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep = &RedeployReport{
		Instances: instances,
		Initial:   initial.Clone(),
		Final:     initial.Clone(),
	}
	current := initial.Clone()

	for p := 1; p <= cfg.Periods; p++ {
		hours := float64(p) * cfg.PeriodHours
		prob, candidate, err := solveAt(hours, cfg.Seed+int64(p)*101)
		if err != nil {
			return nil, err
		}
		out := PeriodOutcome{
			Hours:      hours,
			StaticCost: prob.Cost(initial),
		}
		curCost := prob.Cost(current)
		candCost := prob.Cost(candidate)
		moves := diffCount(current, candidate)
		// Re-deploy when the predicted gain clears both the hysteresis
		// threshold and the amortized migration charge.
		migration := cfg.MigrationCostPerNode * float64(moves)
		if curCost > 0 && (curCost-candCost-migration)/curCost >= cfg.MinImprovement {
			current = candidate.Clone()
			out.Redeployed = true
			out.MovedNodes = moves
			out.AdaptiveCost = candCost + migration
			rep.Redeployments++
			rep.TotalMoves += moves
		} else {
			out.AdaptiveCost = curCost
		}
		rep.Periods = append(rep.Periods, out)
	}
	rep.Final = current
	return rep, nil
}

// diffCount reports how many nodes map to different instances in a and b.
func diffCount(a, b core.Deployment) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
