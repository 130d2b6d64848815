package serve

import (
	"container/heap"
	"sync"
	"time"

	"cloudia/internal/solver"
)

// This file implements the scheduler behind Daemon.Advise: one fair ready
// queue with per-tenant accounting that grants a bounded number of solve
// slots. An advise is solved on the goroutine that called Advise; the
// scheduler only decides when that caller may start.
//
// Producers (Advise) append work to per-tenant FIFO queues; whenever a slot
// is free — at admission, or when a running solve finishes — the scheduler
// grants it to the most-starved ready tenant's head task, and that task's
// caller runs the solve. At most slots (DaemonConfig.Workers) solves run at
// once, and no stage buffers or copies epochs ahead of demand. Jobs flow as
// references the whole way down: an admitted task holds the request and the
// tenant's snapshots by pointer, and nothing between Advise and
// SolveStream clones a matrix or a Prep artifact.
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
// monopolizing the slots to "catch up".
//
// A solve reads only its own task and the shared Cache, so which caller's
// goroutine runs it, and when, changes neither its deployment nor its cost.
type sched struct {
	mu sync.Mutex

	tenants map[string]*tenantState
	ready   readyHeap

	// capacity bounds queued (admitted-but-undispatched tasks).
	capacity int

	// slots bounds running, the granted tasks not yet done.
	slots, running int

	// vclock is the vtime of the most recent dispatch; newly arriving idle
	// tenants start at it (see above).
	vclock float64

	// queued counts admitted-but-undispatched tasks across all tenants.
	queued int

	seq int64 // admission counter, tie-break for equal vtimes
}

// tenantState is one tenant key's scheduling state. A tenant is on the
// ready heap when it has pending jobs and none in flight; it is off the
// heap while idle or while a job runs, so one tenant's jobs run one at a
// time, in submission order.
type tenantState struct {
	pending []*task // FIFO backlog
	running bool    // a job is in flight
	vtime   float64 // accumulated charged service, ns

	seq int64 // seq of the head pending task, dispatch-order tie-break
}

// readyHeap orders ready tenants by (vtime, admission seq). The seq
// tie-break makes dispatch order deterministic for tenants with identical
// charges, e.g. a fresh fleet submitting equal jobs in a loop.
type readyHeap struct {
	ts []*tenantState
}

func (h readyHeap) Len() int { return len(h.ts) }
func (h readyHeap) Less(i, j int) bool {
	a, b := h.ts[i], h.ts[j]
	if a.vtime != b.vtime {
		return a.vtime < b.vtime
	}
	return a.seq < b.seq
}
func (h readyHeap) Swap(i, j int) { h.ts[i], h.ts[j] = h.ts[j], h.ts[i] }
func (h *readyHeap) Push(x any)   { h.ts = append(h.ts, x.(*tenantState)) }
func (h *readyHeap) Pop() any {
	t := h.ts[len(h.ts)-1]
	h.ts = h.ts[:len(h.ts)-1]
	return t
}

func newSched(capacity, slots int) *sched {
	return &sched{tenants: make(map[string]*tenantState), capacity: capacity, slots: slots}
}

// charge converts a job's declared budget into fairness units (ns-like).
// Time budgets charge their duration; purely node-budgeted jobs charge
// their node count — nodes are the machine-independent work unit, and a
// fleet mixing the two axes still gets a consistent ordering within each
// kind.
func charge(b solver.Budget) float64 {
	if b.Time > 0 {
		return float64(b.Time)
	}
	return float64(b.Nodes)
}

// submit performs admission control and enqueues the task, keyed by its
// tenant, atomically, then grants any free slot. A capacity of zero admits
// without bound.
func (s *sched) submit(tk *task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity > 0 && s.queued >= s.capacity {
		return ErrBusy
	}
	t, ok := s.tenants[tk.req.Tenant]
	if !ok {
		t = &tenantState{}
		s.tenants[tk.req.Tenant] = t
	}
	s.seq++
	tk.enqueued, tk.seq = time.Now(), s.seq
	if len(t.pending) == 0 && !t.running {
		// Returning from idle: no banked credit (see file comment).
		if t.vtime < s.vclock {
			t.vtime = s.vclock
		}
		t.seq = tk.seq
		heap.Push(&s.ready, t)
	}
	t.pending = append(t.pending, tk)
	s.queued++
	s.dispatch()
	return nil
}

// dispatch grants each free slot to the head task of the most-starved ready
// tenant, waking that task's caller. s.mu must be held.
func (s *sched) dispatch() {
	for s.running < s.slots && s.ready.Len() > 0 {
		close(s.pop().granted)
	}
}

// pop takes the head task of the most-starved ready tenant (lowest vtime,
// then earliest admission), charges its budget to the tenant, and counts it
// as running. s.mu must be held and a tenant must be ready.
func (s *sched) pop() *task {
	t := heap.Pop(&s.ready).(*tenantState)
	tk := t.pending[0]
	t.pending[0] = nil
	t.pending = t.pending[1:]
	t.running = true
	s.queued--
	s.running++
	if t.vtime > s.vclock {
		s.vclock = t.vtime
	}
	t.vtime += charge(tk.req.RoundBudget)
	return tk
}

// done retires a granted task: its slot frees, the tenant's next pending
// job (if any) re-enters the ready queue, and the free slot is granted.
func (s *sched) done(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	t := s.tenants[key]
	t.running = false
	if len(t.pending) > 0 {
		t.seq = t.pending[0].seq
		heap.Push(&s.ready, t)
	}
	s.dispatch()
}

// queuedTasks reports the admitted-but-undispatched task count.
func (s *sched) queuedTasks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}
