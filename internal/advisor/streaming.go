package advisor

import (
	"context"
	"fmt"
	"math"
	"time"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
)

// This file implements incremental advising over streaming measurement:
// StreamingAdvise consumes measure.Stream's matrix epochs as they mature,
// interleaving a solve against each epoch and warm-starting every round
// from the previous incumbent, so the first feasible advice lands after one
// epoch plus one short round — and advice quality converges while
// measurement is still in flight, reproducing the Fig. 5 convergence story
// end to end. Advise is the same loop over the final epoch alone.

// StreamingConfig drives one incremental advising run. The embedded Config
// fields keep their batch meanings; SolverName defaults to the full
// portfolio here, because short warm-started rounds are exactly the regime
// the racing portfolio was built for.
type StreamingConfig struct {
	Config

	// EpochMS is the virtual-time period between matrix epochs; zero
	// selects one eighth of the measurement budget.
	EpochMS float64

	// RoundBudget bounds each per-epoch solve. Zero splits SolverBudget
	// (or its 2M-node default) evenly across the expected epoch count.
	RoundBudget solver.Budget
}

// Round records one epoch's solve in a streaming advising run.
type Round struct {
	// Epoch and AtMS identify the consumed matrix epoch; Final marks the
	// epoch published at measurement completion.
	Epoch int
	AtMS  float64
	Final bool
	// ChangedRows is how many rows of the searched matrix changed versus
	// the previous epoch.
	ChangedRows int
	// Cost is the incumbent's deployment cost under this epoch's matrix,
	// and Improved reports whether this round's solve beat the
	// warm-started incumbent carried into it.
	Cost     float64
	Improved bool
	// Winner names the portfolio member that produced the incumbent (empty
	// when the carried incumbent survived the round).
	Winner string
	// Elapsed is the wall-clock time from the start of the advising loop
	// to the end of this round; the first round's value is the
	// time-to-first-advice the streaming pipeline exists to shrink.
	Elapsed time.Duration
}

// StreamOutcome is the result of consuming an epoch stream to completion.
type StreamOutcome struct {
	// Deployment is the final incumbent and Cost its deployment cost under
	// the final epoch's matrix.
	Deployment core.Deployment
	Cost       float64
	// Problem is the final epoch's problem; its Prep carries the
	// accumulated preprocessing for any follow-up solves.
	Problem *solver.Problem
	// Search is the final round's solver result.
	Search *solver.Result
	// Rounds records every solve round in order.
	Rounds []Round
	// FirstAdvice is the wall-clock time to the first feasible advice.
	FirstAdvice time.Duration
	// Interrupted reports that cfg.Ctx expired before the stream closed:
	// Deployment is the best incumbent found so far rather than the final
	// epoch's, and any unconsumed epochs were left on the channel (a
	// measure.Stream producer must then be stopped: Streamer.Stop).
	Interrupted bool
}

// StreamSolveConfig drives SolveStream.
type StreamSolveConfig struct {
	// Graph defines the deployment problem's communication graph; required.
	Graph *core.Graph
	// ObjectiveSpec says what to optimize. With a percentile metric each
	// round searches the epoch's published percentile matrix (ep.Tail) and,
	// unless NoMeanTieBreak is set, tie-breaks equal-cost candidates on the
	// epoch's mean matrix; with mean+sd it searches ep.MeanPlusStd. The
	// spec's Scheme is ignored here — SolveStream consumes epochs, it does
	// not measure.
	ObjectiveSpec
	// SolverName picks the per-round search technique (as in Config);
	// empty selects the racing portfolio.
	SolverName string
	// ClusterK rounds costs for cp/portfolio members; zero selects the
	// paper's k=20 for them.
	ClusterK int
	// RoundBudget bounds each round's solve; required (an unbounded round
	// would swallow the stream).
	RoundBudget solver.Budget
	// Seed drives the per-round solver seeds.
	Seed int64
	// OnProblem, when non-nil, observes each round's problem immediately
	// after it is built — before the warm start is installed and before any
	// solver touches its Prep — so a serving layer can share
	// content-addressed preprocessing sets into it (internal/serve).
	// prev is the previous round's problem (nil on the first round) and
	// changedRows the searched matrix's changed-row set between prev's
	// epoch and ep. A non-nil error aborts the run.
	OnProblem func(prob, prev *solver.Problem, ep measure.Epoch, changedRows []int) error
	// OnRound, when non-nil, observes each round as it completes.
	OnRound func(Round)
	// Ctx, when non-nil, bounds the whole run: once it is done (deadline
	// or cancellation) the loop stops consuming epochs, cuts short the
	// round in flight (context-aware solvers return their best-so-far
	// immediately), and returns the incumbent with Outcome.Interrupted
	// set. A context that expires before the first round still gets one
	// short round — solvers produce a feasible deployment even on an
	// exhausted budget — so an interrupted run returns advice, not an
	// error, as long as one epoch arrived.
	Ctx context.Context
	// WarmStart, when non-nil, seeds the incumbent before the first round,
	// exactly as if a previous round had produced it: it is priced under
	// the first epoch's matrix and survives until a round beats it. It is
	// validated against the first problem; an out-of-range deployment
	// fails the run.
	WarmStart core.Deployment
}

// StreamSolver resolves the solver name and cluster count SolveStream runs
// when a caller leaves them zero: the racing portfolio, and the paper's k=20
// for cp and the portfolio's CP member.
func StreamSolver(name string, clusterK int) (string, int) {
	name, clusterK, _ = searchDefaults(name, "portfolio", clusterK, solver.Budget{Nodes: 1})
	return name, clusterK
}

// SolveStream runs the incremental advising loop over an epoch stream: for
// each matrix epoch it builds a fresh problem (and so a fresh Prep: every
// epoch's cost clustering is a fit of that epoch's matrix), installs the
// previous incumbent as a warm start, and races the configured solver for
// one round. It returns after the stream closes, with the incumbent of the
// final epoch. Callers with their own epoch source (anything that can fill
// measure.Epoch values) can drive it directly; StreamingAdvise wires it to
// measure.Stream.
func SolveStream(epochs <-chan measure.Epoch, cfg StreamSolveConfig) (*StreamOutcome, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("advisor: nil communication graph")
	}
	if err := cfg.ObjectiveSpec.Validate(); err != nil {
		return nil, err
	}
	if cfg.RoundBudget.Unlimited() {
		return nil, fmt.Errorf("advisor: streaming rounds require a bounded budget")
	}
	name, clusterK := StreamSolver(cfg.SolverName, cfg.ClusterK)

	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	start := time.Now()
	out := &StreamOutcome{}
	var incumbent core.Deployment
	incumbentCost := math.Inf(1)

	for {
		ep, ok, interrupted := nextEpoch(epochs, ctx)
		if interrupted {
			out.Interrupted = true
			break
		}
		if !ok {
			break
		}
		primary, changedRows, tie, err := epochPrimary(ep, cfg.ObjectiveSpec)
		if err != nil {
			return nil, err
		}
		prob, err := solver.NewProblemTie(cfg.Graph, primary, tie, cfg.Objective)
		if err != nil {
			return nil, err
		}
		prev := out.Problem
		if prev != nil && prob.NumInstances() != prev.NumInstances() {
			return nil, fmt.Errorf("advisor: epoch %d has %d instances, the first epoch had %d (the instance set is fixed across epochs)", ep.Index, prob.NumInstances(), prev.NumInstances())
		}
		if cfg.OnProblem != nil {
			if err := cfg.OnProblem(prob, prev, ep, changedRows); err != nil {
				return nil, err
			}
		}
		out.Problem = prob

		if prev == nil && cfg.WarmStart != nil {
			if err := cfg.WarmStart.Validate(prob.NumInstances()); err != nil {
				return nil, fmt.Errorf("advisor: warm start: %w", err)
			}
			incumbent = cfg.WarmStart
		}
		if incumbent != nil {
			if err := prob.Prep().WarmStart(incumbent); err != nil {
				return nil, err
			}
			incumbentCost = prob.Cost(incumbent)
		}

		// A fresh solver per round keeps member seeds decorrelated across
		// rounds while staying deterministic per (Seed, round).
		round := len(out.Rounds)
		sol, err := NewSolver(name, clusterK, cfg.Seed+int64(round)*0x9e3779b9)
		if err != nil {
			return nil, err
		}
		res, err := sol.SolveContext(ctx, prob, cfg.RoundBudget)
		if err != nil {
			return nil, err
		}

		// Keep the better of the round's result and the carried incumbent,
		// both priced under this epoch's matrix (solver-reported costs may
		// be measured on cluster-rounded matrices).
		r := Round{
			Epoch:       ep.Index,
			AtMS:        ep.AtMS,
			Final:       ep.Final,
			ChangedRows: len(changedRows),
		}
		if candCost := prob.Cost(res.Deployment); incumbent == nil ||
			prob.Better(res.Deployment, incumbent, candCost, incumbentCost) {
			incumbent, incumbentCost = res.Deployment, candCost
			r.Improved = true
			r.Winner = res.Winner
			if r.Winner == "" {
				r.Winner = sol.Name()
			}
		}
		r.Cost = incumbentCost
		r.Elapsed = time.Since(start)
		out.Rounds = append(out.Rounds, r)
		out.Search = res
		if cfg.OnRound != nil {
			cfg.OnRound(r)
		}
		if ctx.Err() != nil {
			// The deadline landed during this round; its (possibly cut
			// short) result stands as the best-so-far advice.
			out.Interrupted = true
			break
		}
	}
	if out.Problem == nil {
		if out.Interrupted {
			return nil, fmt.Errorf("advisor: %w before the first epoch", ctx.Err())
		}
		return nil, fmt.Errorf("advisor: epoch stream closed before the first epoch")
	}
	out.Deployment = incumbent
	out.Cost = incumbentCost
	out.FirstAdvice = out.Rounds[0].Elapsed
	return out, nil
}

// epochPrimary selects the matrix a round searches under the spec's
// metric: the epoch's mean matrix, its mean+sd matrix, or its published
// percentile matrix (with the mean as tie-break when enabled). An epoch
// without the requested matrix is a configuration error — the producer
// keeps no spread statistics.
func epochPrimary(ep measure.Epoch, spec ObjectiveSpec) (*core.CostMatrix, []int, *core.CostMatrix, error) {
	var m *measure.TailMatrix
	switch pct := spec.TailPercentile(); {
	case pct > 0:
		m = ep.Tail(pct)
	case spec.Metric == MetricMeanPlusStd:
		m = ep.MeanPlusStd
	default:
		return ep.Matrix, ep.ChangedRows, nil, nil
	}
	if m == nil {
		return nil, nil, nil, fmt.Errorf("advisor: epoch %d carries no %s matrix — its producer keeps no spread statistics (measure.Options.TailAlpha = 0, or a daemon tenant posting no matching tail rows)", ep.Index, spec.Metric)
	}
	var tie *core.CostMatrix
	if spec.TieBreak() {
		tie = ep.Matrix
	}
	return m.Matrix, m.ChangedRows, tie, nil
}

// nextEpoch receives the next epoch or reports an interrupt. A pending
// epoch wins over an already-expired context: the round it feeds still runs
// (context-aware solvers cut it short), so an interrupted run returns
// best-so-far advice instead of nothing; the post-round ctx check then
// stops the loop.
func nextEpoch(epochs <-chan measure.Epoch, ctx context.Context) (ep measure.Epoch, ok, interrupted bool) {
	select {
	case ep, ok = <-epochs:
		return ep, ok, false
	default:
	}
	select {
	case ep, ok = <-epochs:
		return ep, ok, false
	case <-ctx.Done():
		return measure.Epoch{}, false, true
	}
}

// StreamingReport is a Report extended with the streaming run's round
// trajectory.
type StreamingReport struct {
	Report
	Rounds []Round
	// FirstAdvice is the wall-clock time from the start of measurement to
	// the first feasible advice — the latency the batch pipeline pays
	// (full measurement + full solve) before producing anything.
	FirstAdvice time.Duration
}

// StreamingAdvise runs the incremental ClouDiA pipeline: allocate, start a
// streaming measurement, interleave warm-started portfolio rounds against
// its matrix epochs, and terminate the extra instances once the final epoch
// is solved. The final epoch's matrices are bit-identical to the ones
// Advise searches with the same options, so streaming trades nothing for
// its earlier first advice. As in Advise, a failure after allocation
// terminates every instance before returning.
func StreamingAdvise(prov *cloud.Provider, cfg StreamingConfig) (*StreamingReport, error) {
	return advise(prov, cfg, false)
}

// Winner returns the most recent round winner, skipping rounds where the
// carried incumbent survived.
func (o *StreamOutcome) Winner() string {
	for i := len(o.Rounds) - 1; i >= 0; i-- {
		if o.Rounds[i].Winner != "" {
			return o.Rounds[i].Winner
		}
	}
	return ""
}
