package serve

import (
	"testing"

	"cloudia/internal/solver"
)

// schedJob builds a minimal task carrying only what the scheduler reads.
func schedJob(tenant string, nodes int64) *task {
	return &task{req: AdviseRequest{Tenant: tenant, RoundBudget: solver.Budget{Nodes: nodes}}}
}

// next pops the head task of the most-starved ready tenant under the lock,
// as a freed slot would. The tests build zero-slot schedulers, which grant
// nothing by themselves, so next alone decides the dispatch order.
// ok=false means no tenant is ready.
func (s *sched) next() (tk *task, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ready.Len() == 0 {
		return nil, false
	}
	return s.pop(), true
}

// drain dispatches and immediately retires count tasks, returning the
// tenant order.
func drain(t *testing.T, s *sched, count int) []string {
	t.Helper()
	order := make([]string, 0, count)
	for i := 0; i < count; i++ {
		tk, ok := s.next()
		if !ok {
			t.Fatalf("scheduler drained after %d of %d dispatches", i, count)
		}
		order = append(order, tk.req.Tenant)
		s.done(tk.req.Tenant)
	}
	return order
}

// mustSubmitN admits n node-budgeted jobs for one tenant.
func mustSubmitN(t *testing.T, s *sched, tenant string, nodes int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.submit(schedJob(tenant, nodes)); err != nil {
			t.Fatal(err)
		}
	}
}

// A hot tenant's backlog must not delay other tenants: after the hot
// tenant's first dispatch charges its vtime, every light tenant sorts in
// front of the remaining backlog.
func TestSchedHotTenantYieldsToLights(t *testing.T) {
	s := newSched(0, 0)
	mustSubmitN(t, s, "hot", 1000, 4)
	for _, l := range []string{"l1", "l2", "l3"} {
		mustSubmitN(t, s, l, 1000, 1)
	}
	want := []string{"hot", "l1", "l2", "l3", "hot", "hot", "hot"}
	got := drain(t, s, 7)
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
	s := newSched(0, 0)
	mustSubmitN(t, s, "a", 1000, 3)
	drain(t, s, 3) // vclock advances to 2000 while b is idle
	mustSubmitN(t, s, "b", 1000, 3)
	mustSubmitN(t, s, "a", 1000, 2)
	// Had b banked credit from vtime 0 it would drain its whole backlog
	// (b,b,b,a,a) before a ran again; with the start-time rule b starts at
	// the virtual clock and the two interleave once b catches up.
	want := []string{"b", "b", "a", "b", "a"}
	got := drain(t, s, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (idle tenant banked credit)", got, want)
		}
	}
}

// Per-tenant execution is serialized: a tenant with a job in flight is not
// ready, however deep its backlog, so one tenant can never occupy two
// slots.
func TestSchedSerializesTenant(t *testing.T) {
	s := newSched(0, 0)
	mustSubmitN(t, s, "only", 1000, 3)
	tk, ok := s.next()
	if !ok {
		t.Fatal("first dispatch failed")
	}
	// With "only" in flight, a free slot must find nothing to grant.
	s.mu.Lock()
	if n := s.ready.Len(); n != 0 {
		s.mu.Unlock()
		t.Fatalf("%d tenants ready while the only tenant was in flight", n)
	}
	s.mu.Unlock()
	s.done("only")
	if tk2, ok := s.next(); !ok || tk2.req.Tenant != "only" || tk2.seq != tk.seq+1 {
		t.Fatal("backlog not resumable in order after completion")
	}
}

// Every dispatch takes the globally most-starved ready tenant: with a at
// vtime 5000 and b at 1000, the next free slot goes to b, although a was
// admitted first and finished first.
func TestSchedStealPicksMostStarved(t *testing.T) {
	s := newSched(0, 0)
	mustSubmitN(t, s, "a", 5000, 2)
	mustSubmitN(t, s, "b", 1000, 2)
	ta, _ := s.next() // a: vtime 0 -> 5000
	tb, _ := s.next() // b: vtime 0 -> 1000
	s.done(ta.req.Tenant)
	s.done(tb.req.Tenant)
	if tk, _ := s.next(); tk.req.Tenant != "b" {
		t.Fatalf("dispatch with a at vtime 5000 and b at 1000 picked %q, want most-starved \"b\"", tk.req.Tenant)
	}
}
