package solver

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
)

// Portfolio runs member solvers concurrently on the same problem — one
// goroutine per member — and returns the best result found. Every member
// receives the full budget, so on a k-core machine a k-member portfolio
// matches the paper's deployment-time budget while exploring k search
// strategies at once; under a node budget the result is never worse than
// the best member run sequentially with the same seeds (under a wall-clock
// budget on fewer cores than members, CPU time-sharing trades single-member
// depth for strategy diversity). Members that error (e.g. CP on a
// longest-path problem) are skipped; members that prove optimality cancel
// the rest through the shared context.
//
// Members share the problem's Prep cache: rounded cost sets and bootstrap
// incumbents are computed by whichever member asks first and reused by
// the rest (and by any later run on the same Problem), instead of each
// member burning its budget recomputing them. The served member list is
// advisor.NewPortfolio's.
type Portfolio struct {
	Members []Solver
}

// NewPortfolio returns a portfolio over the given members.
func NewPortfolio(members ...Solver) *Portfolio { return &Portfolio{Members: members} }

// Name implements Solver.
func (pf *Portfolio) Name() string {
	names := make([]string, len(pf.Members))
	for i, s := range pf.Members {
		names[i] = s.Name()
	}
	return "portfolio(" + strings.Join(names, "+") + ")"
}

// Solve implements Solver.
func (pf *Portfolio) Solve(p *Problem, budget Budget) (*Result, error) {
	return pf.SolveContext(context.Background(), p, budget)
}

// SolveContext implements Solver. The returned result carries the
// winner's deployment, cost, and trace; Nodes sums every member's expansions
// and Optimal is set when any member proved optimality.
func (pf *Portfolio) SolveContext(ctx context.Context, p *Problem, budget Budget) (*Result, error) {
	if len(pf.Members) == 0 {
		return nil, fmt.Errorf("solver: empty portfolio")
	}
	if budget.Unlimited() {
		return nil, fmt.Errorf("solver: portfolio requires a bounded budget")
	}
	clock := NewClockCtx(ctx, budget)
	ctx, cancel := context.WithCancel(ctx)
	if budget.Time > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, budget.Time)
		defer cancelTimeout()
	}
	defer cancel()

	// Each member writes only its own slot; the winner is selected after the
	// join, in member-index order, so ties are broken by portfolio position
	// rather than goroutine completion order. That keeps advice
	// bit-reproducible across runs and machine speeds — essential for the
	// percentile mode, whose cluster-rounded matrices tie frequently.
	results := make([]*Result, len(pf.Members))
	errs := make([]error, len(pf.Members))
	//cloudia:nondet-ok members write disjoint slots; the winner is chosen post-join in member-index order
	var wg sync.WaitGroup
	for i, member := range pf.Members {
		i, member := i, member
		wg.Add(1)
		//cloudia:nondet-ok member i writes only results[i]/errs[i]; selection happens after the join
		go func() {
			defer wg.Done()
			// A panicking member loses only its own lane: the panic is
			// captured as that member's error (with the stack, for the
			// serving layer's logs) while the other members keep racing.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("solver: portfolio member %s panicked: %v\n%s", member.Name(), r, debug.Stack())
				}
			}()
			res, err := member.SolveContext(ctx, p, budget)
			if err != nil {
				errs[i] = fmt.Errorf("solver: portfolio member %s: %w", member.Name(), err)
				return
			}
			results[i] = res
			if res.Optimal {
				cancel() // a proven optimum makes further search pointless
			}
		}()
	}
	wg.Wait()

	var (
		best    *Result
		winner  string
		nodes   int64
		optimal bool
		lastErr error
	)
	for i, res := range results {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		if res == nil {
			continue
		}
		nodes += res.Nodes
		if res.Optimal {
			optimal = true
		}
		if res.Deployment == nil {
			continue
		}
		if best == nil || p.Better(res.Deployment, best.Deployment, res.Cost, best.Cost) {
			best, winner = res, pf.Members[i].Name()
		}
	}

	if best == nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("solver: no portfolio member produced a deployment")
	}
	return &Result{
		Deployment: best.Deployment,
		Cost:       best.Cost,
		Optimal:    optimal,
		Nodes:      nodes,
		Elapsed:    clock.Elapsed(),
		Trace:      best.Trace,
		Winner:     winner,
	}, nil
}
