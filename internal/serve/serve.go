// Package serve implements multi-tenant advisor serving: one process
// hosting many concurrent advising problems instead of the
// one-problem-at-a-time advisor the paper describes. Jobs enter per-tenant
// FIFO queues behind one fair ready queue; any free worker *pulls* the
// most-starved ready tenant's next job and solves its matrix as the one
// final epoch of advisor.SolveStream, so a served job's result is
// bit-equal to running the same tenant through the streaming path
// directly, whichever worker ran it and whenever. What the serving layer
// adds is sharing and isolation: a content-addressed Prep cache (see
// Cache) hands every job the shared matrix and graph artifact sets for its
// content, by reference, so tenants with identical cost matrices — common
// when they measure the same datacenter slice, or when a fleet of problems
// is re-advised against one published matrix — split the dominant
// preprocessing cost across the whole fleet, while per-tenant fairness
// accounting stops one hot tenant's backlog from starving everyone else
// (see sched.go for the scheduling model).
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

// Job is one tenant's advising request: a deployment problem over one
// already measured cost matrix — the tenant's current snapshot, as the
// daemon submits it.
type Job struct {
	// Tenant identifies the requesting tenant and is the scheduling key:
	// one tenant's jobs run one at a time in submission order, with
	// fairness accounted per tenant.
	// Required.
	Tenant string

	// Graph defines the deployment problem's communication graph; required.
	Graph *core.Graph
	// ObjectiveSpec says what to optimize (advisor.ObjectiveSpec): the
	// objective, the metric — percentile metrics search TailMatrix,
	// tie-breaking on the mean — and the tie-break policy. The spec's
	// Scheme is ignored here: served jobs consume matrices, they do not
	// measure.
	advisor.ObjectiveSpec

	// Matrix is the cost matrix the job solves over, run as the one final
	// epoch of advisor.SolveStream. It is shared by reference; the caller
	// must not mutate it after Submit. Required.
	Matrix *core.CostMatrix
	// TailMatrix is the percentile matrix that final epoch publishes as its
	// tail. Required when the spec's metric is a percentile.
	TailMatrix *core.CostMatrix

	// SolverName, ClusterK, RoundBudget, and Seed have their
	// advisor.StreamSolveConfig meanings. RoundBudget is required — beyond
	// bounding the solve, it is the job's fairness charge: each dispatch
	// advances the tenant's virtual time by the declared budget, so tenants
	// promising more work cede priority sooner.
	SolverName  string
	ClusterK    int
	RoundBudget solver.Budget
	Seed        int64

	// Timeout, when positive, bounds the job's solve wall clock from the
	// moment a worker picks it up; zero leaves the solve bounded only by
	// RoundBudget. On expiry the job completes normally with its
	// best-so-far incumbent and Outcome.Interrupted set — a deadline is
	// degraded advice, not an error.
	Timeout time.Duration
	// WarmStart, when non-nil, seeds the job's incumbent before its first
	// round (advisor.StreamSolveConfig.WarmStart). The durable daemon uses
	// it to resume a recovered tenant from its last served advice.
	WarmStart core.Deployment
	// OnRound, when non-nil, observes each round as it completes, on the
	// worker goroutine. The daemon streams per-round advice through it.
	OnRound func(advisor.Round)
}

// Result is one served job's outcome.
type Result struct {
	Tenant string
	// Outcome is the streaming solve outcome (nil when Err is set); its
	// final deployment and cost are bit-equal to advisor.SolveStream over
	// the same final epoch and configuration.
	Outcome *advisor.StreamOutcome
	Err     error
	// CacheHits and CacheMisses count the shared Prep artifacts the job's
	// solve read, each once: a miss when the build ran inside this job, a
	// hit when another job built it.
	CacheHits, CacheMisses int
	// Queued is how long the job waited to be pulled by a worker; Ran is
	// the solve wall-clock time.
	Queued, Ran time.Duration
}

// Ticket is a handle on a submitted job.
type Ticket struct {
	done chan struct{}
	res  *Result
}

// Wait blocks until the job completes and returns its result.
func (t *Ticket) Wait() *Result {
	<-t.done
	return t.res
}

// Config sizes a Server.
type Config struct {
	// Shards is the number of worker goroutines; <= 0 selects 2. Jobs of
	// one tenant run sequentially; distinct tenants run concurrently, so
	// Shards bounds the number of portfolio solves racing for the machine
	// at once. Any free worker takes the most-starved ready tenant.
	Shards int
	// Cache is the shared artifact cache; nil builds a fresh
	// NewCache(DefaultMaxMatrices). Several servers may share one cache.
	Cache *Cache
}

// queueDepth sizes admission: a server accepts at most Shards*queueDepth
// admitted-but-undispatched jobs, and Submit rejects with ErrBusy beyond
// that — backpressure surfaces at admission instead of as unbounded memory.
const queueDepth = 16

// Exported admission errors, so callers can tell transient rejection
// (retry later, or elsewhere) from permanent failure.
var (
	ErrBusy   = fmt.Errorf("serve: admission queue full")
	ErrClosed = fmt.Errorf("serve: server closed")
	// ErrJobPanicked marks a Result whose solve panicked: the worker
	// recovered, released the tenant's in-flight slot, and kept serving —
	// only the poisoned job failed. The wrapped error carries the panic
	// value and the captured stack.
	ErrJobPanicked = fmt.Errorf("serve: job panicked in the solver")
)

// Server schedules jobs onto pulling workers over the shared cache.
type Server struct {
	cache *Cache
	sched *sched
	wg    sync.WaitGroup

	closed    atomic.Bool
	submitted atomic.Int64
	rejected  atomic.Int64
	served    atomic.Int64
	failed    atomic.Int64
}

type task struct {
	job      Job
	ticket   *Ticket
	enqueued time.Time
	seq      int64
}

// New starts a server. Callers must Close it to release the workers.
func New(cfg Config) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewCache(0)
	}
	s := &Server{cache: cache, sched: newSched(cfg.Shards * queueDepth)}
	for i := 0; i < cfg.Shards; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job for the pulling workers. It never
// blocks: a full admission queue rejects with ErrBusy.
func (s *Server) Submit(job Job) (*Ticket, error) {
	if job.Tenant == "" {
		return nil, fmt.Errorf("serve: job without a tenant key")
	}
	if job.Graph == nil {
		return nil, fmt.Errorf("serve: job without a communication graph")
	}
	if err := job.ObjectiveSpec.Validate(); err != nil {
		return nil, err
	}
	if job.Metric == advisor.MetricMeanPlusStd {
		return nil, fmt.Errorf("serve: jobs do not support the %q metric (epochs carry mean and percentile matrices)", advisor.MetricMeanPlusStd)
	}
	if job.Matrix == nil {
		return nil, fmt.Errorf("serve: job without a cost matrix")
	}
	if job.TailPercentile() > 0 && job.TailMatrix == nil {
		return nil, fmt.Errorf("serve: metric %q requires TailMatrix (the pre-measured percentile matrix)", job.Metric)
	}
	// The solver clock ignores a negative axis, so it bounds nothing.
	if b := job.RoundBudget; b.Unlimited() || b.Time < 0 || b.Nodes < 0 {
		return nil, fmt.Errorf("serve: job requires a bounded round budget")
	}
	// Build the graph's incidence caches up front (concurrent-safe; racing
	// Submits serialize behind one build) so workers never pay it
	// mid-solve on a graph shared by several jobs.
	job.Graph.EnsureIncidence()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	t := &Ticket{done: make(chan struct{})}
	err := s.sched.submit(job.Tenant, job, t)
	switch err {
	case nil:
		s.submitted.Add(1)
		return t, nil
	case ErrBusy:
		s.rejected.Add(1)
		return nil, err
	default:
		return nil, err
	}
}

// Close stops admission, drains the queued jobs, and waits for the workers
// to finish them. Safe to call once.
func (s *Server) Close() {
	if !s.closed.Swap(true) {
		s.sched.close()
	}
	s.wg.Wait()
}

// worker is one pull loop: take the fairest ready job, run it, retire it,
// repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		tk, ok := s.sched.next()
		if !ok {
			return
		}
		res := s.runJob(tk)
		s.sched.done(tk.job.Tenant)
		if res.Err != nil {
			s.failed.Add(1)
		} else {
			s.served.Add(1)
		}
		tk.ticket.res = res
		close(tk.ticket.done)
	}
}

// runJob serves one job: the streaming loop with the cache bridge plugged
// into its OnProblem hook. A panic anywhere in the solve — a poisoned
// matrix, a faulty solver, a hostile callback — is recovered into
// ErrJobPanicked on the job's own Result: the worker survives, and the
// caller in worker() still retires the task so the tenant's in-flight slot
// is released exactly as for a clean failure.
func (s *Server) runJob(tk task) (res *Result) {
	job := tk.job
	res = &Result{Tenant: job.Tenant, Queued: time.Since(tk.enqueued)}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Ran = time.Since(start)
			res.Outcome = nil
			res.Err = fmt.Errorf("%w: %v\n%s", ErrJobPanicked, r, debug.Stack())
		}
	}()

	// The matrices flow down as-is: the one-epoch channel wraps the
	// caller's snapshots, it does not clone them.
	ep := measure.Epoch{Index: 1, Final: true, Matrix: job.Matrix}
	if job.TailMatrix != nil {
		ep.Tails = []measure.TailMatrix{{Pct: job.TailPercentile(), Matrix: job.TailMatrix}}
	}
	epochs := make(chan measure.Epoch, 1)
	epochs <- ep
	close(epochs)

	br := &cacheBridge{cache: s.cache, spec: job.ObjectiveSpec}
	var ctx context.Context
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), job.Timeout)
		defer cancel()
	}
	out, err := advisor.SolveStream(epochs, advisor.StreamSolveConfig{
		Graph:         job.Graph,
		ObjectiveSpec: job.ObjectiveSpec,
		SolverName:    job.SolverName,
		ClusterK:      job.ClusterK,
		RoundBudget:   job.RoundBudget,
		Seed:          job.Seed,
		OnProblem:     br.onProblem,
		OnRound:       job.OnRound,
		Ctx:           ctx,
		WarmStart:     job.WarmStart,
	})
	res.Ran = time.Since(start)
	res.Outcome, res.Err = out, err
	res.CacheHits, res.CacheMisses = br.reads()
	return res
}

// Stats is a point-in-time server counter snapshot.
type Stats struct {
	// Submitted counts admitted jobs; Rejected counts ErrBusy refusals;
	// Served and Failed partition completed jobs.
	Submitted, Rejected, Served, Failed int64
	// Steals is always 0: every worker pulls from one ready queue, so no
	// dispatch crosses a shard. It stays only because existing stats
	// readers still report it.
	Steals int64
	// Cache is the shared cache's snapshot.
	Cache CacheStats
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted: s.submitted.Load(),
		Rejected:  s.rejected.Load(),
		Served:    s.served.Load(),
		Failed:    s.failed.Load(),
		Cache:     s.cache.Stats(),
	}
}

// cacheBridge adapts the shared cache to advisor.SolveStream's OnProblem
// hook for one job. A job is one epoch, so the hook sees one fresh problem,
// whose Prep it points at the shared matrix set; the solver then builds what
// it reads, on first read, into the set every later job over the same
// content shares.
type cacheBridge struct {
	cache *Cache
	spec  advisor.ObjectiveSpec
	prep  *solver.Prep
}

// epochFP returns the content fingerprint of the matrix the round actually
// searches: the epoch's tail fingerprint for percentile specs, the mean
// fingerprint otherwise. Percentile and mean matrices are distinct cache
// keys — their Prep artifacts are not interchangeable. The fallback is
// always correct because prob.Costs IS the searched (primary) matrix.
func (b *cacheBridge) epochFP(prob *solver.Problem, ep measure.Epoch) core.Fingerprint {
	var fp core.Fingerprint
	if pct := b.spec.TailPercentile(); pct > 0 {
		if tail := ep.Tail(pct); tail != nil {
			fp = tail.Fingerprint
		}
	} else {
		fp = ep.Fingerprint
	}
	if fp == 0 {
		fp = prob.Costs.Fingerprint()
	}
	return fp
}

func (b *cacheBridge) onProblem(prob, _ *solver.Problem, ep measure.Epoch, _ []int) error {
	b.prep = prob.Prep()
	b.cache.share(b.epochFP(prob, ep), b.prep)
	return nil
}

// reads reports the job's shared reads and adds them to the cache counters.
func (b *cacheBridge) reads() (hits, misses int) {
	if b.prep == nil {
		return 0, 0
	}
	hits, misses = b.prep.SharedReads()
	b.cache.record(hits, misses)
	return hits, misses
}
