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

// TestSolvePanicIsolation: an advise whose solve panics fails with
// ErrJobPanicked (stack attached) while the daemon survives, the tenant's
// in-flight slot and the daemon's one solve slot are released, and the
// daemon serves the next advise of the same tenant normally.
func TestSolvePanicIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := testGraph(t, 2, 3)
	m := testMatrix(rng, 8)

	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	postMatrix(t, d, "acme", m)

	poisoned := AdviseRequest{
		Tenant:        "acme",
		Graph:         g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName:    "g2",
		RoundBudget:   solver.Budget{Nodes: 2_000, Time: time.Second},
		OnRound:       func(advisor.Round) { panic("poisoned job") },
	}
	res, err := d.Advise(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrJobPanicked) {
		t.Fatalf("poisoned advise error = %v, want ErrJobPanicked", res.Err)
	}
	if res.Outcome != nil {
		t.Fatal("poisoned advise carried an outcome")
	}
	if !strings.Contains(res.Err.Error(), "poisoned job") || !strings.Contains(res.Err.Error(), "goroutine") {
		t.Fatalf("panic error lacks value or stack: %v", res.Err)
	}

	// Accounting must be fully released: no queued work.
	if q := d.sched.queuedTasks(); q != 0 {
		t.Fatalf("%d tasks stuck in queues after panic", q)
	}

	// The same tenant's next advise must get the freed slot and be served.
	clean := poisoned
	clean.OnRound = nil
	res2 := adviseOK(t, d, clean)
	if err := res2.Outcome.Deployment.Validate(8); err != nil {
		t.Fatalf("post-panic advice invalid: %v", err)
	}
	st := d.Stats().Server
	if st.Failed != 1 || st.Served != 1 {
		t.Fatalf("failed/served = %d/%d, want 1/1", st.Failed, st.Served)
	}
}

// TestJobTimeoutReturnsBestSoFar: an advise whose deadline expires
// mid-solve completes with its best-so-far incumbent and
// Outcome.Interrupted — a usable, validated deployment, not an error.
func TestJobTimeoutReturnsBestSoFar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := testGraph(t, 2, 3)
	m := testMatrix(rng, 8)

	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	postMatrix(t, d, "slow", m)

	res := adviseOK(t, d, AdviseRequest{
		Tenant:        "slow",
		Graph:         g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		RoundBudget:   solver.Budget{Nodes: 500_000},
		Timeout:       time.Nanosecond, // expires before the first round
	})
	if !res.Outcome.Interrupted {
		t.Fatal("timed-out advise not marked Interrupted")
	}
	if err := res.Outcome.Deployment.Validate(8); err != nil {
		t.Fatalf("timed-out advise returned no usable advice: %v", err)
	}
}

// TestJobWarmStartCarriesIncumbent: an advise warm-started from the
// tenant's last advice can only improve on it, even with a negligible
// round budget.
func TestJobWarmStartCarriesIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := testGraph(t, 2, 3)
	m := testMatrix(rng, 8)

	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	postMatrix(t, d, "warm", m)

	// First solve properly to obtain a good deployment.
	first := adviseOK(t, d, AdviseRequest{
		Tenant: "warm", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		RoundBudget: solver.Budget{Nodes: 20_000},
	})

	res := adviseOK(t, d, AdviseRequest{
		Tenant: "warm", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName:  "g2",
		RoundBudget: solver.Budget{Nodes: 1},
	})
	if res.Outcome.Cost > first.Outcome.Cost {
		t.Fatalf("warm-started cost %g worse than its seed %g", res.Outcome.Cost, first.Outcome.Cost)
	}
}
