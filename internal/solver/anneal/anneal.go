// Package anneal implements a simulated-annealing solver for both node
// deployment objectives. The paper's toolbox stops at greedy and randomized
// lightweight approaches (Sects. 4.3 and 4.5); annealing is the natural next
// rung — a local search over the same solution space — and serves as an
// ablation baseline between R2 and the systematic CP/MIP solvers.
//
// Moves either swap the instances of two deployed nodes or relocate a node
// to an unused (over-allocated) instance. Temperature decays geometrically
// from an initial value calibrated to the cost scale. Move evaluation goes
// through solver.DeltaEvaluator, so each step costs ~O(deg) instead of a
// full O(E) or O(V+E) recomputation, and the inner loop is allocation-free.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"cloudia/internal/solver"
)

// Solver is a simulated-annealing solver.
type Solver struct {
	// Seed drives all randomness.
	Seed int64
}

// New returns an annealing solver.
func New(seed int64) *Solver { return &Solver{Seed: seed} }

// Name implements solver.Solver.
func (s *Solver) Name() string { return "SA" }

// Solve implements solver.Solver.
func (s *Solver) Solve(p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	return s.SolveContext(context.Background(), p, budget)
}

// SolveContext implements solver.Solver.
func (s *Solver) SolveContext(ctx context.Context, p *solver.Problem, budget solver.Budget) (*solver.Result, error) {
	if budget.Unlimited() {
		return nil, fmt.Errorf("anneal: requires a bounded budget")
	}
	clock := solver.NewClockCtx(ctx, budget)
	rng := rand.New(rand.NewSource(s.Seed))

	// The bootstrap incumbent comes from the problem's shared
	// preprocessing cache — CP, MIP, and same-seeded SA members all draw
	// the identical best-of-10, so it is computed once. The move rng is
	// separate, so the annealing trajectory no longer depends on how many
	// draws bootstrapping consumed.
	cur, curCost := p.Prep().Bootstrap(10, s.Seed)
	ev := solver.NewDeltaEvaluator(p, cur)
	best := cur.Clone()
	bestCost := curCost

	res := &solver.Result{}
	res.Trace = append(res.Trace, solver.TracePoint{Elapsed: clock.Elapsed(), Cost: bestCost})

	// The temperature starts at half the bootstrap cost and decays by
	// ~e^-7 (effectively to zero) over the node budget, or over 200k moves
	// under a time budget.
	t0 := curCost * 0.5
	if t0 <= 0 {
		t0 = 1e-6
	}
	steps := int64(200_000)
	if budget.Nodes > 0 {
		steps = budget.Nodes
	}
	decay := 7.0 / float64(steps)

	n := p.NumNodes()
	m := p.NumInstances()
	free := make([]int, 0, m-n)
	for inst := 0; inst < m; inst++ {
		if ev.InstanceNode(inst) < 0 {
			free = append(free, inst)
		}
	}
	if n < 2 {
		// No swap exists and relocating a single edgeless node cannot
		// change the cost: the bootstrap deployment is final.
		res.Deployment = best
		res.Cost = bestCost
		res.Nodes = clock.Nodes()
		res.Elapsed = clock.Elapsed()
		return res, nil
	}

	step := int64(0)
	for !clock.Tick() {
		step++
		temp := t0 * math.Exp(-decay*float64(step))

		// Propose: swap two nodes, or move one node to a free instance.
		// The evaluator prices the move in ~O(deg); no full recomputation.
		var cand float64
		relocate := len(free) > 0 && rng.Intn(2) == 0
		var node, fi, vacated int
		if relocate {
			node = rng.Intn(n)
			fi = rng.Intn(len(free))
			vacated = ev.Deployment()[node]
			cand = ev.RelocateCost(node, free[fi])
		} else {
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			cand = ev.SwapCost(a, b)
		}

		delta := cand - curCost
		if delta <= 0 || rng.Float64() < math.Exp(-delta/math.Max(temp, 1e-12)) {
			ev.Commit()
			if relocate {
				free[fi] = vacated
			}
			curCost = cand
			if curCost < bestCost {
				bestCost = curCost
				copy(best, ev.Deployment())
				res.Trace = append(res.Trace, solver.TracePoint{
					Elapsed: clock.Elapsed(), Nodes: clock.Nodes(), Cost: bestCost,
				})
			}
		} else {
			ev.Reject()
		}
	}

	res.Deployment = best
	res.Cost = bestCost
	res.Nodes = clock.Nodes()
	res.Elapsed = clock.Elapsed()
	return res, nil
}
