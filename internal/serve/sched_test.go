package serve

import (
	"testing"
	"time"

	"cloudia/internal/solver"
)

// schedJob builds a minimal job carrying only what the scheduler reads.
func schedJob(tenant string, nodes int64) Job {
	return Job{Tenant: tenant, RoundBudget: solver.Budget{Nodes: nodes}}
}

// drain dispatches and immediately retires count tasks from one shard,
// returning the tenant order.
func drain(t *testing.T, s *sched, shard, count int) []string {
	t.Helper()
	order := make([]string, 0, count)
	for i := 0; i < count; i++ {
		tk, _, ok := s.next(shard)
		if !ok {
			t.Fatalf("scheduler drained after %d of %d dispatches", i, count)
		}
		order = append(order, tk.job.Tenant)
		s.done(tk.job.Tenant, tk)
	}
	return order
}

// A hot tenant's backlog must not delay other tenants: after the hot
// tenant's first dispatch charges its vtime, every light tenant sorts in
// front of the remaining backlog.
func TestSchedHotTenantYieldsToLights(t *testing.T) {
	s := newSched(1, 0, 0, 0, true)
	for i := 0; i < 4; i++ {
		if err := s.submit("hot", 0, schedJob("hot", 1000), &Ticket{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []string{"l1", "l2", "l3"} {
		if err := s.submit(l, 0, schedJob(l, 1000), &Ticket{}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"hot", "l1", "l2", "l3", "hot", "hot", "hot"}
	got := drain(t, s, 0, 7)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// A tenant that was idle must not bank credit: on re-arrival its vtime is
// raised to the virtual clock, so it gets its fair share from now on, not a
// burst of catch-up dispatches.
func TestSchedIdleTenantBanksNoCredit(t *testing.T) {
	s := newSched(1, 0, 0, 0, true)
	for i := 0; i < 3; i++ {
		if err := s.submit("a", 0, schedJob("a", 1000), &Ticket{}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s, 0, 3) // vclock advances to 2000 while b is idle
	for i := 0; i < 3; i++ {
		if err := s.submit("b", 0, schedJob("b", 1000), &Ticket{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := s.submit("a", 0, schedJob("a", 1000), &Ticket{}); err != nil {
			t.Fatal(err)
		}
	}
	// Had b banked credit from vtime 0 it would drain its whole backlog
	// (b,b,b,a,a) before a ran again; with the start-time rule b starts at
	// the virtual clock and the two interleave once b catches up.
	want := []string{"b", "b", "a", "b", "a"}
	got := drain(t, s, 0, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (idle tenant banked credit)", got, want)
		}
	}
}

// Per-tenant execution is serialized: a tenant with a job in flight is not
// ready, however deep its backlog, so one tenant can never occupy two
// workers (preserving the warm-state guarantee of per-shard routing).
func TestSchedSerializesTenant(t *testing.T) {
	s := newSched(2, 0, 0, 0, false)
	for i := 0; i < 3; i++ {
		if err := s.submit("only", 0, schedJob("only", 1000), &Ticket{}); err != nil {
			t.Fatal(err)
		}
	}
	tk, stolen, ok := s.next(0)
	if !ok || stolen {
		t.Fatalf("first dispatch ok=%v stolen=%v", ok, stolen)
	}
	// With "only" in flight, the other worker must find nothing to pull —
	// not even by stealing.
	s.mu.Lock()
	if got := s.pickLocked(1); got != nil {
		s.mu.Unlock()
		t.Fatalf("second worker pulled a tenant (home shard %d) while the tenant was in flight", got.home)
	}
	s.mu.Unlock()
	s.done("only", tk)
	if tk2, _, ok := s.next(1); !ok || tk2.job.Tenant != "only" {
		t.Fatal("backlog not resumable after completion")
	}
}

// An idle worker steals the lowest-vtime ready tenant from another shard;
// with stealing disabled it finds nothing.
func TestSchedStealPicksMostStarved(t *testing.T) {
	s := newSched(3, 0, 0, 0, false)
	// Two tenants homed on shard 1 with different accumulated vtimes.
	if err := s.submit("ahead", 1, schedJob("ahead", 5000), &Ticket{}); err != nil {
		t.Fatal(err)
	}
	tk, _, _ := s.next(1) // charges ahead.vtime to 5000
	s.done("ahead", tk)
	if err := s.submit("ahead", 1, schedJob("ahead", 5000), &Ticket{}); err != nil {
		t.Fatal(err)
	}
	if err := s.submit("behind", 2, schedJob("behind", 1000), &Ticket{}); err != nil {
		t.Fatal(err)
	}
	got, stolen, ok := s.next(0) // shard 0 homes nobody: must steal
	if !ok || !stolen || got.job.Tenant != "behind" {
		t.Fatalf("steal picked %q stolen=%v, want most-starved \"behind\"", got.job.Tenant, stolen)
	}
	if s.stealCount() != 1 {
		t.Fatalf("steals = %d, want 1", s.stealCount())
	}

	ns := newSched(2, 0, 0, 0, true)
	if err := ns.submit("x", 1, schedJob("x", 1000), &Ticket{}); err != nil {
		t.Fatal(err)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if got := ns.pickLocked(0); got != nil {
		t.Fatalf("noSteal scheduler let shard 0 pull a tenant homed on shard %d", got.home)
	}
}

// Per-tenant budget accounting rejects one tenant's excess without touching
// the others, and releases on completion.
func TestSchedPerTenantBudget(t *testing.T) {
	s := newSched(1, 0, 0, 250*time.Millisecond, true)
	j := Job{Tenant: "a", RoundBudget: solver.Budget{Time: 100 * time.Millisecond}}
	if err := s.submit("a", 0, j, &Ticket{}); err != nil {
		t.Fatal(err)
	}
	if err := s.submit("a", 0, j, &Ticket{}); err != nil {
		t.Fatal(err)
	}
	if err := s.submit("a", 0, j, &Ticket{}); err != ErrOverBudget {
		t.Fatalf("third 100ms job for one tenant: %v, want ErrOverBudget", err)
	}
	jb := j
	jb.Tenant = "b"
	if err := s.submit("b", 0, jb, &Ticket{}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	tk, _, _ := s.next(0)
	s.done("a", tk)
	if err := s.submit("a", 0, j, &Ticket{}); err != nil {
		t.Fatalf("tenant budget not released on completion: %v", err)
	}
}
