package serve

import (
	"container/heap"
	"sync"
	"time"
)

// This file implements the pull-based job scheduler behind Server: a shared
// ready queue with per-tenant fair accounting, pulled by shard workers that
// steal across shard boundaries when their own tenants are idle. It
// replaces the push-based per-shard channel queues of the first serving
// layer, whose static hash routing let one hot tenant starve its shard's
// other tenants while neighbouring shards sat idle.
//
// The design is the iterator-composition/worker-pool shape of streaming
// query executors: producers (Submit) only append work to per-tenant FIFO
// queues; consumers (shard workers) lazily pull the next job when — and
// only when — they have capacity, so no stage ever buffers or copies epochs
// ahead of demand. Jobs flow as references the whole way down: an admitted
// task holds the caller's Job verbatim (matrix and graph pointers), and
// nothing between Submit and SolveStream clones a matrix or a Prep
// artifact.
//
// Fairness is stride-scheduling over declared budgets. Every tenant carries
// a virtual time (vtime): dispatching one of its jobs charges the job's
// declared round budget, and the ready queue is a min-heap on vtime. A hot
// tenant's backlog therefore advances its vtime far ahead after a few
// dispatches, and every lightly-loaded tenant's next job sorts in front of
// the remaining backlog — the hot tenant can delay a light tenant by at most
// the one in-flight job (execution is non-preemptive), not by its whole
// queue. A tenant going idle does not bank credit: on re-arrival its vtime
// is raised to the scheduler's virtual clock (the vtime of the last
// dispatch), the standard start-time rule that stops a returning tenant from
// monopolizing the workers to "catch up".
//
// Shard affinity survives as a soft preference, not a hard route: every
// tenant still hashes to a home shard, and a worker always prefers its own
// home tenants (keeping one tenant's evolving jobs on one worker in the
// common balanced case). A worker whose home tenants are all idle or busy
// steals the lowest-vtime ready tenant from any other shard instead of
// idling. Stealing moves only the dispatch — a job runs the same
// deterministic SolveStream wherever it lands, so served results are
// bit-equal regardless of steal interleavings (asserted in the equivalence
// and determinism tests).
type sched struct {
	mu   sync.Mutex
	cond *sync.Cond

	tenants map[string]*tenantState
	ready   []readyHeap // one min-vtime heap per shard (home tenants only)

	// capacity bounds queued (admitted-but-undispatched tasks); budgetCap
	// and tenantBudgetCap bound the summed declared wall-clock budgets of
	// admitted-but-unfinished jobs, globally and per tenant. Zero caps are
	// unlimited. noSteal pins dispatch to home shards (the static-sharding
	// ablation the skewed-tenant benchmark compares against).
	capacity        int
	budgetCap       int64
	tenantBudgetCap int64
	noSteal         bool

	// vclock is the vtime of the most recent dispatch; newly arriving idle
	// tenants start at it (see above).
	vclock float64

	// queued counts admitted-but-undispatched tasks across all tenants;
	// outstanding additionally counts dispatched-but-unfinished ones, so
	// close() can wait for a full drain. pendingBudget sums the declared
	// time budgets (ns) of outstanding jobs.
	queued        int
	outstanding   int
	pendingBudget int64

	seq    int64 // admission counter, tie-break for equal vtimes
	closed bool
	steals int64
}

// tenantState is one tenant key's scheduling state. A tenant is on exactly
// one ready heap when it has pending jobs and none in flight; it is on no
// heap while idle or while a job runs (per-tenant execution is serialized,
// preserving the old one-tenant-one-shard warm-state guarantee).
type tenantState struct {
	home int // home shard (hash of the tenant name)

	pending []task  // FIFO backlog
	running bool    // a job is in flight
	vtime   float64 // accumulated charged service, ns

	// pendingBudget sums the declared time budgets (ns) of this tenant's
	// admitted-but-unfinished jobs — the per-tenant admission accounting
	// that replaced per-shard queue depth.
	pendingBudget int64

	seq int64 // seq of the head pending task, dispatch-order tie-break
}

// readyHeap orders ready tenants by (vtime, admission seq). The seq
// tie-break makes dispatch order deterministic for tenants with identical
// charges, e.g. a fresh fleet submitting equal jobs in a loop.
type readyHeap struct {
	ts []*tenantState
}

func (h readyHeap) Len() int           { return len(h.ts) }
func (h readyHeap) Less(i, j int) bool { return readyLess(h.ts[i], h.ts[j]) }
func (h readyHeap) Swap(i, j int)      { h.ts[i], h.ts[j] = h.ts[j], h.ts[i] }
func (h *readyHeap) Push(x any)        { h.ts = append(h.ts, x.(*tenantState)) }
func (h *readyHeap) Pop() any {
	t := h.ts[len(h.ts)-1]
	h.ts = h.ts[:len(h.ts)-1]
	return t
}

// readyLess compares ready tenants by (vtime, head-task admission order).
func readyLess(a, b *tenantState) bool {
	if a.vtime != b.vtime {
		return a.vtime < b.vtime
	}
	return a.seq < b.seq
}

func newSched(shards, capacity int, budgetCap, tenantBudgetCap time.Duration, noSteal bool) *sched {
	s := &sched{
		tenants:         make(map[string]*tenantState),
		ready:           make([]readyHeap, shards),
		capacity:        capacity,
		budgetCap:       int64(budgetCap),
		tenantBudgetCap: int64(tenantBudgetCap),
		noSteal:         noSteal,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// charge converts a job's declared budget into fairness units (ns-like).
// Time budgets charge their duration; purely node-budgeted jobs charge
// their node count — nodes are the machine-independent work unit, and a
// fleet mixing the two axes still gets a consistent ordering within each
// kind.
func charge(j Job) float64 {
	if j.RoundBudget.Time > 0 {
		return float64(j.RoundBudget.Time)
	}
	return float64(j.RoundBudget.Nodes)
}

// timeBudget is the admission-accounting cost of a job: only wall-clock
// budgets count (a node-budgeted job promises machine-independent work with
// no wall-clock bound to charge, mirroring the original MaxPendingBudget
// contract).
func timeBudget(j Job) int64 { return int64(j.RoundBudget.Time) }

// submit performs admission control and enqueues the task atomically. The
// budget caps are checked before capacity, so an over-budget job reports
// the sharper error even when the queue is also full.
func (s *sched) submit(key string, home int, j Job, tk *Ticket) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	cost := timeBudget(j)
	if s.budgetCap > 0 && s.pendingBudget+cost > s.budgetCap {
		return ErrOverBudget
	}
	t, ok := s.tenants[key]
	if s.tenantBudgetCap > 0 && ok && t.pendingBudget+cost > s.tenantBudgetCap {
		return ErrOverBudget
	}
	if s.capacity > 0 && s.queued >= s.capacity {
		return ErrBusy
	}
	if !ok {
		t = &tenantState{home: home}
		s.tenants[key] = t
	}
	s.seq++
	task := task{job: j, ticket: tk, enqueued: time.Now(), seq: s.seq}
	if len(t.pending) == 0 && !t.running {
		// Returning from idle: no banked credit (see file comment).
		if t.vtime < s.vclock {
			t.vtime = s.vclock
		}
		t.seq = task.seq
		heap.Push(&s.ready[t.home], t)
	}
	t.pending = append(t.pending, task)
	t.pendingBudget += cost
	s.pendingBudget += cost
	s.queued++
	s.outstanding++
	s.cond.Signal()
	return nil
}

// next blocks until a task is ready and returns it, preferring the calling
// shard's own home tenants and stealing the lowest-vtime ready tenant from
// another shard otherwise. ok=false means the scheduler is closed and fully
// drained. stolen reports a cross-shard steal.
func (s *sched) next(shard int) (tk task, stolen bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t := s.pickLocked(shard); t != nil {
			stolen = t.home != shard
			if stolen {
				s.steals++
			}
			tk = t.pending[0]
			t.pending[0] = task{} // release the Job's references early
			t.pending = t.pending[1:]
			t.running = true
			s.queued--
			if t.vtime > s.vclock {
				s.vclock = t.vtime
			}
			t.vtime += charge(tk.job)
			return tk, stolen, true
		}
		if s.closed && s.outstanding == 0 {
			return task{}, false, false
		}
		s.cond.Wait()
	}
}

// pickLocked selects the next ready tenant for a shard: its own heap's
// minimum if any, else (stealing enabled) the lowest-vtime ready tenant
// across the other shards' heaps.
func (s *sched) pickLocked(shard int) *tenantState {
	if own := &s.ready[shard]; own.Len() > 0 {
		return heap.Pop(own).(*tenantState)
	}
	if s.noSteal {
		return nil
	}
	best := -1
	for i := range s.ready {
		if i == shard || s.ready[i].Len() == 0 {
			continue
		}
		if best < 0 || readyLess(s.ready[i].ts[0], s.ready[best].ts[0]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return heap.Pop(&s.ready[best]).(*tenantState)
}

// done retires a dispatched task: the tenant's in-flight slot frees, its
// admission budget is released, and its next pending job (if any) re-enters
// the ready queue.
func (s *sched) done(key string, tk task) {
	s.mu.Lock()
	t := s.tenants[key]
	t.running = false
	cost := timeBudget(tk.job)
	t.pendingBudget -= cost
	s.pendingBudget -= cost
	s.outstanding--
	if len(t.pending) > 0 {
		t.seq = t.pending[0].seq
		heap.Push(&s.ready[t.home], t)
	}
	// Broadcast, not Signal: completion can unblock both a worker waiting
	// for work and Close waiting for the drain.
	s.cond.Broadcast()
	s.mu.Unlock()
}

// close stops admission and wakes every waiting worker so they can drain
// the backlog and exit.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pending reports the summed declared time budgets of outstanding jobs.
func (s *sched) pending() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.pendingBudget)
}

// queuedTasks reports the admitted-but-undispatched task count.
func (s *sched) queuedTasks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// stealCount reports the number of cross-shard steals so far.
func (s *sched) stealCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steals
}
