// Package serve implements multi-tenant advisor serving: one process
// hosting many concurrent advising problems instead of the
// one-problem-at-a-time advisor the paper describes. The Daemon keeps each
// tenant's measured cost matrices and last advice durable (daemon.go) and
// solves each advise on the goroutine that called Advise: the call enters a
// per-tenant FIFO queue behind one fair ready queue, waits until a solve
// slot is granted to it — the most-starved ready tenant's next advise gets
// each free slot — and then solves its matrix snapshot as the one final
// epoch of advisor.SolveStream, so served advice is bit-equal to running
// the same tenant through the streaming path directly, whenever it ran.
// What serving adds is sharing and isolation:
// a content-addressed Prep cache (see Cache) hands every solve the shared
// rounded sets for its content, by reference, so tenants with
// identical cost matrices — common when they measure the same datacenter
// slice, or when a fleet of problems is re-advised against one published
// matrix — split the dominant preprocessing cost across the whole fleet,
// while per-tenant fairness accounting stops one hot tenant's backlog from
// starving everyone else (see sched.go for the scheduling model).
package serve

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
)

// Result is one served advise's outcome.
type Result struct {
	Tenant string
	// Outcome is the streaming solve outcome (nil when Err is set); its
	// final deployment and cost are bit-equal to advisor.SolveStream over
	// the same final epoch and configuration.
	Outcome *advisor.StreamOutcome
	Err     error
	// CacheHits and CacheMisses count the shared rounded sets the
	// advise's solve read, one per cluster count: a miss when the build ran
	// inside this solve, a hit when another solve built it.
	CacheHits, CacheMisses int
	// Queued is how long the advise waited from admission to its slot
	// grant; Ran is the solve wall-clock time.
	Queued, Ran time.Duration
}

// queueDepth sizes admission: a daemon admits at most Workers*queueDepth
// admitted-but-undispatched advises, and Advise rejects with ErrBusy beyond
// that — backpressure surfaces at admission instead of as unbounded memory.
const queueDepth = 16

// Exported admission errors, so callers can tell transient rejection
// (retry later, or elsewhere) from permanent failure.
var (
	ErrBusy   = fmt.Errorf("serve: admission queue full")
	ErrClosed = fmt.Errorf("serve: server closed")
	// ErrJobPanicked marks a Result whose solve panicked: the daemon
	// recovered, released the solve slot and the tenant's in-flight slot,
	// and kept serving — only the poisoned advise failed. The wrapped error
	// carries the panic value and the captured stack.
	ErrJobPanicked = fmt.Errorf("serve: job panicked in the solver")
)

// task is one admitted advise: the request and what Advise read from the
// tenant's session for it. The matrices are the committed snapshots,
// shared by reference.
type task struct {
	req AdviseRequest
	// mean is the tenant's mean snapshot; tail, set for percentile
	// metrics, is the percentile snapshot the solve searches, tie-breaking
	// on mean.
	mean, tail *core.CostMatrix
	// fp is the searched snapshot's fingerprint, its Prep cache key.
	fp   core.Fingerprint
	warm core.Deployment

	enqueued time.Time
	seq      int64
	granted  chan struct{} // closed when the task is granted a solve slot
}

// Daemon serves advice over durable per-tenant state (daemon.go), solving
// each advise on its caller's goroutine once the scheduler grants it a slot.
type Daemon struct {
	cfg   DaemonConfig
	cache *Cache
	sched *sched

	// mu guards tenants and closed. calls counts the Advise and
	// AppendEpoch calls in flight; each is added under mu while the daemon
	// is open, so Close, once it has set closed, can wait for them.
	mu      sync.Mutex
	tenants map[string]*tenantSession
	closed  bool
	//cloudia:nondet-ok calls counts in-flight calls for Close to drain; it fans nothing out
	calls sync.WaitGroup

	submitted, rejected, served, failed atomic.Int64
}

// run solves a granted task: the streaming loop over its snapshot as the
// one final epoch, with the problem's Prep pointed at the cache's shared
// set for the snapshot's content. On return it frees the task's slot and
// counts the advise served or failed. A panic anywhere in the solve — a
// poisoned matrix, a faulty solver, a hostile callback — is recovered into
// ErrJobPanicked on the task's own Result, and the slot is freed exactly as
// for a clean failure.
func (d *Daemon) run(t *task) (res *Result) {
	req := &t.req
	res = &Result{Tenant: req.Tenant, Queued: time.Since(t.enqueued)}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Ran = time.Since(start)
			res.Outcome = nil
			res.Err = fmt.Errorf("%w: %v\n%s", ErrJobPanicked, r, debug.Stack())
		}
		d.sched.done(req.Tenant)
		if res.Err != nil {
			d.failed.Add(1)
		} else {
			d.served.Add(1)
		}
	}()

	// The snapshots flow down as-is: the one-epoch channel wraps them, it
	// does not clone them.
	ep := measure.Epoch{Index: 1, Final: true, Matrix: t.mean}
	if t.tail != nil {
		ep.Tails = []measure.TailMatrix{{Pct: req.TailPercentile(), Matrix: t.tail}}
	}
	epochs := make(chan measure.Epoch, 1)
	epochs <- ep
	close(epochs)

	var prep *solver.Prep
	var ctx context.Context
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), req.Timeout)
		defer cancel()
	}
	out, err := advisor.SolveStream(epochs, advisor.StreamSolveConfig{
		Graph:         req.Graph,
		ObjectiveSpec: req.ObjectiveSpec,
		SolverName:    req.SolverName,
		ClusterK:      req.ClusterK,
		RoundBudget:   req.RoundBudget,
		Seed:          req.Seed,
		OnProblem: func(prob, _ *solver.Problem, _ measure.Epoch, _ []int) error {
			prep = prob.Prep()
			d.cache.share(t.fp, prep)
			return nil
		},
		OnRound:   req.OnRound,
		Ctx:       ctx,
		WarmStart: t.warm,
	})
	res.Ran = time.Since(start)
	res.Outcome, res.Err = out, err
	if prep != nil {
		res.CacheHits, res.CacheMisses = prep.SharedReads()
		d.cache.record(res.CacheHits, res.CacheMisses)
	}
	return res
}

// Stats is a point-in-time counter snapshot of the daemon's advises.
type Stats struct {
	// Submitted counts admitted advises; Rejected counts ErrBusy refusals;
	// Served and Failed partition completed advises.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Served    int64 `json:"served"`
	Failed    int64 `json:"failed"`
	// Steals is always 0: every slot is granted from one ready queue, so no
	// dispatch crosses a shard. It stays, out of the JSON, only because
	// cloudia-perf still reads it.
	Steals int64 `json:"-"`
	// Cache is the shared cache's snapshot.
	Cache CacheStats `json:"cache"`
}
