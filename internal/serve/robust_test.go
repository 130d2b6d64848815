package serve

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/solver"
)

// TestWorkerPanicIsolation: a job whose solve panics fails with
// ErrJobPanicked (stack attached) while the worker survives, the tenant's
// in-flight slot is released, and the daemon serves the next job — same
// tenant, same worker — normally.
func TestWorkerPanicIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := testGraph(t, 2, 3)
	m := testMatrix(rng, 8)

	s := New(Config{Shards: 1})
	defer s.Close()

	poisoned := Job{
		Tenant:        "acme",
		Graph:         g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		Matrix:        m,
		SolverName:    "g2",
		RoundBudget:   solver.Budget{Nodes: 2_000, Time: time.Second},
		OnRound:       func(advisor.Round) { panic("poisoned job") },
	}
	res := mustSubmit(t, s, poisoned).Wait()
	if !errors.Is(res.Err, ErrJobPanicked) {
		t.Fatalf("poisoned job error = %v, want ErrJobPanicked", res.Err)
	}
	if res.Outcome != nil {
		t.Fatal("poisoned job carried an outcome")
	}
	if !strings.Contains(res.Err.Error(), "poisoned job") || !strings.Contains(res.Err.Error(), "goroutine") {
		t.Fatalf("panic error lacks value or stack: %v", res.Err)
	}

	// Accounting must be fully released: no queued work.
	if q := s.sched.queuedTasks(); q != 0 {
		t.Fatalf("%d tasks stuck in queues after panic", q)
	}

	// The same tenant's next job must be served by the surviving worker.
	clean := poisoned
	clean.OnRound = nil
	res2 := mustSubmit(t, s, clean).Wait()
	if res2.Err != nil {
		t.Fatalf("job after the poisoned one failed: %v", res2.Err)
	}
	if err := res2.Outcome.Deployment.Validate(8); err != nil {
		t.Fatalf("post-panic advice invalid: %v", err)
	}
	st := s.Stats()
	if st.Failed != 1 || st.Served != 1 {
		t.Fatalf("failed/served = %d/%d, want 1/1", st.Failed, st.Served)
	}
}

// TestJobTimeoutReturnsBestSoFar: a job whose deadline expires mid-solve
// completes with its best-so-far incumbent and Outcome.Interrupted — a
// usable, validated deployment, not an error.
func TestJobTimeoutReturnsBestSoFar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := testGraph(t, 2, 3)
	m := testMatrix(rng, 8)

	s := New(Config{Shards: 1})
	defer s.Close()

	res := mustSubmit(t, s, Job{
		Tenant:        "slow",
		Graph:         g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		Matrix:        m,
		RoundBudget:   solver.Budget{Nodes: 500_000},
		Timeout:       time.Nanosecond, // expires before the first round
	}).Wait()
	if res.Err != nil {
		t.Fatalf("timed-out job failed: %v", res.Err)
	}
	if !res.Outcome.Interrupted {
		t.Fatal("timed-out job not marked Interrupted")
	}
	if err := res.Outcome.Deployment.Validate(8); err != nil {
		t.Fatalf("timed-out job returned no usable advice: %v", err)
	}
}

// TestJobWarmStartCarriesIncumbent: a warm-started job can only improve on
// the supplied deployment, even with a negligible round budget.
func TestJobWarmStartCarriesIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := testGraph(t, 2, 3)
	m := testMatrix(rng, 8)

	s := New(Config{Shards: 1})
	defer s.Close()

	// First solve properly to obtain a good deployment.
	first := mustSubmit(t, s, Job{
		Tenant: "warm", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink}, Matrix: m,
		RoundBudget: solver.Budget{Nodes: 20_000},
	}).Wait()
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	warm := first.Outcome.Deployment

	res := mustSubmit(t, s, Job{
		Tenant: "warm", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink}, Matrix: m,
		SolverName:  "g2",
		RoundBudget: solver.Budget{Nodes: 1},
		WarmStart:   warm,
	}).Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Outcome.Cost > first.Outcome.Cost {
		t.Fatalf("warm-started cost %g worse than its seed %g", res.Outcome.Cost, first.Outcome.Cost)
	}
}

func mustSubmit(t *testing.T, s *Server, job Job) *Ticket {
	t.Helper()
	tk, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}
