// Package random implements the paper's randomized search baselines
// (Sects. 4.3.1 and 4.5.1): R1 draws a fixed number of uniformly random
// deployments and keeps the best; R2 draws random deployments until its
// budget runs out, the same deployment-time budget given to the CP/MIP
// solvers (Sect. 6.5). Local ("R2L") upgrades R2 from blind sampling to
// restarted hill climbing: it repeatedly samples a start and then walks
// swap/relocate moves priced by solver.DeltaEvaluator in ~O(deg) per move.
// All three work unchanged for the longest-link and longest-path
// objectives. Each runs one seeded search on the calling goroutine, so a
// node-budgeted answer is a function of the seed alone, whatever the
// machine's core count.
package random

import (
	"context"
	"fmt"
	"math/rand"

	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// R1 is the fixed-sample-count randomized solver. The paper uses 1,000
// samples.
type R1 struct {
	Samples int
	Seed    int64
}

// NewR1 returns an R1 solver drawing the given number of samples.
func NewR1(samples int, seed int64) *R1 { return &R1{Samples: samples, Seed: seed} }

// Name implements solver.Solver.
func (s *R1) Name() string { return "R1" }

// Solve implements solver.Solver: sequential, fully deterministic sampling.
// The node budget, if smaller than Samples, truncates the run.
func (s *R1) Solve(p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	return s.SolveContext(context.Background(), p, budget)
}

// SolveContext implements solver.Solver.
func (s *R1) SolveContext(ctx context.Context, p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	if s.Samples <= 0 {
		return nil, fmt.Errorf("random: R1 needs positive sample count, got %d", s.Samples)
	}
	clock := solver.NewClockCtx(ctx, budget)
	rng := rand.New(rand.NewSource(s.Seed))
	smp := solver.NewSampler(p)
	cand := make(core.Deployment, p.NumNodes())
	res := &solver.Result{}
	for i := 0; i < s.Samples; i++ {
		smp.Sample(rng, cand)
		c := p.Cost(cand)
		if res.Deployment == nil || c < res.Cost {
			if res.Deployment == nil {
				res.Deployment = make(core.Deployment, len(cand))
			}
			copy(res.Deployment, cand)
			res.Cost = c
			res.Trace = append(res.Trace, solver.TracePoint{
				Elapsed: clock.Elapsed(), Nodes: clock.Nodes(), Cost: c,
			})
		}
		if clock.Tick() {
			break
		}
	}
	res.Nodes = clock.Nodes()
	res.Elapsed = clock.Elapsed()
	return res, nil
}

// R2 is the budget-driven randomized solver: one stream of uniform samples,
// seeded with Seed, for the whole budget.
type R2 struct {
	Seed int64
}

// NewR2 returns an R2 solver.
func NewR2(seed int64) *R2 { return &R2{Seed: seed} }

// Name implements solver.Solver.
func (s *R2) Name() string { return "R2" }

// Solve implements solver.Solver: sample until the budget expires and
// return the best sample. Under a node budget the result is deterministic.
func (s *R2) Solve(p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	return s.SolveContext(context.Background(), p, budget)
}

// SolveContext implements solver.Solver.
func (s *R2) SolveContext(ctx context.Context, p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	if budget.Unlimited() {
		return nil, fmt.Errorf("random: R2 requires a bounded budget")
	}
	clock := solver.NewClockCtx(ctx, budget)
	rng := rand.New(rand.NewSource(s.Seed))
	smp := solver.NewSampler(p)
	cand := make(core.Deployment, p.NumNodes())
	res := &solver.Result{}
	for {
		smp.Sample(rng, cand)
		c := p.Cost(cand)
		if res.Deployment == nil || c < res.Cost {
			if res.Deployment == nil {
				res.Deployment = make(core.Deployment, len(cand))
			}
			copy(res.Deployment, cand)
			res.Cost = c
			res.Trace = append(res.Trace, solver.TracePoint{
				Elapsed: clock.Elapsed(), Nodes: clock.Nodes(), Cost: c,
			})
		}
		if clock.Tick() {
			break
		}
	}
	res.Nodes = clock.Nodes()
	res.Elapsed = clock.Elapsed()
	return res, nil
}

// Local is the R2-style local-search solver ("R2L"): one random-restart
// hill climb, seeded with Seed, over swap/relocate moves priced
// incrementally by a solver.DeltaEvaluator. It keeps R2's budget protocol
// but spends each evaluation on a neighbour of a good deployment instead of
// an independent uniform sample.
type Local struct {
	Seed int64
}

// NewLocal returns a Local solver.
func NewLocal(seed int64) *Local { return &Local{Seed: seed} }

// Name implements solver.Solver.
func (s *Local) Name() string { return "R2L" }

// Solve implements solver.Solver.
func (s *Local) Solve(p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	return s.SolveContext(context.Background(), p, budget)
}

// SolveContext implements solver.Solver.
func (s *Local) SolveContext(ctx context.Context, p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	if budget.Unlimited() {
		return nil, fmt.Errorf("random: R2L requires a bounded budget")
	}
	n := p.NumNodes()
	m := p.NumInstances()
	// Restart from a fresh random deployment after this many consecutive
	// non-improving moves.
	patience := 60 * n
	clock := solver.NewClockCtx(ctx, budget)
	rng := rand.New(rand.NewSource(s.Seed))
	if n < 2 {
		// No swap exists and relocating a single edgeless node cannot
		// change the cost: any deployment is optimal.
		d := solver.RandomDeployment(p, rng)
		clock.Tick()
		res := &solver.Result{Deployment: d, Cost: p.Cost(d), Nodes: clock.Nodes(), Elapsed: clock.Elapsed()}
		res.Trace = []solver.TracePoint{{Elapsed: res.Elapsed, Nodes: res.Nodes, Cost: res.Cost}}
		return res, nil
	}
	smp := solver.NewSampler(p)
	start := make(core.Deployment, n)
	free := make([]int, 0, m-n)
	// The search starts from the problem's shared bootstrap incumbent
	// (computed once per problem and handed out as a copy), so the
	// reported best is never worse than the paper's best-of-10 seed even
	// if every restart climbs into a poor basin.
	res := &solver.Result{}
	res.Deployment, res.Cost = p.Prep().Bootstrap(10, s.Seed)
	res.Trace = append(res.Trace, solver.TracePoint{Elapsed: clock.Elapsed(), Cost: res.Cost})
	var ev solver.DeltaEvaluator
	done := false
	for !done {
		// Restart: fresh random start, rebuilt free-instance list.
		smp.Sample(rng, start)
		var cur float64
		if ev == nil {
			ev = solver.NewDeltaEvaluator(p, start)
			cur = ev.Cost()
		} else {
			cur = ev.Reset(start)
		}
		free = free[:0]
		for inst := 0; inst < m; inst++ {
			if ev.InstanceNode(inst) < 0 {
				free = append(free, inst)
			}
		}
		if cur < res.Cost {
			copy(res.Deployment, ev.Deployment())
			res.Cost = cur
			res.Trace = append(res.Trace, solver.TracePoint{
				Elapsed: clock.Elapsed(), Nodes: clock.Nodes(), Cost: cur,
			})
		}
		if clock.Tick() {
			break
		}
		// Hill climb: accept any non-worsening move; restart after
		// `patience` consecutive failures to strictly improve.
		streak := 0
		for streak < patience {
			var cand float64
			relocate := len(free) > 0 && n < m && rng.Intn(4) == 0
			var fi, vacated int
			if relocate {
				node := rng.Intn(n)
				fi = rng.Intn(len(free))
				vacated = ev.Deployment()[node]
				cand = ev.RelocateCost(node, free[fi])
			} else {
				a := rng.Intn(n)
				c := rng.Intn(n - 1)
				if c >= a {
					c++
				}
				cand = ev.SwapCost(a, c)
			}
			if cand <= cur {
				ev.Commit()
				if relocate {
					free[fi] = vacated
				}
				if cand < cur {
					streak = 0
				} else {
					streak++
				}
				cur = cand
				if cur < res.Cost {
					copy(res.Deployment, ev.Deployment())
					res.Cost = cur
					res.Trace = append(res.Trace, solver.TracePoint{
						Elapsed: clock.Elapsed(), Nodes: clock.Nodes(), Cost: cur,
					})
				}
			} else {
				ev.Reject()
				streak++
			}
			if clock.Tick() {
				done = true
				break
			}
		}
	}
	res.Nodes = clock.Nodes()
	res.Elapsed = clock.Elapsed()
	return res, nil
}
