package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
)

// testGraph builds a small mesh communication graph.
func testGraph(t testing.TB, rows, cols int) *core.Graph {
	t.Helper()
	g, err := core.Mesh2D(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testMatrix builds a random instances x instances cost matrix.
func testMatrix(rng *rand.Rand, instances int) *core.CostMatrix {
	m := core.NewCostMatrix(instances)
	for i := 0; i < instances; i++ {
		for j := 0; j < instances; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	return m
}

// finalEpoch is the one-epoch stream a served job over m runs: the
// unsharded comparator for every served result.
func finalEpoch(m *core.CostMatrix) <-chan measure.Epoch {
	ch := make(chan measure.Epoch, 1)
	ch <- measure.Epoch{Index: 1, Final: true, Matrix: m}
	close(ch)
	return ch
}

// gatedJob returns a valid job whose worker parks in OnRound until the
// test sends on (or closes) the returned gate: the way to hold a worker,
// and to observe which job is running, without racing the solver.
func gatedJob(g *core.Graph, m *core.CostMatrix, tenant string, budget solver.Budget) (Job, chan struct{}) {
	gate := make(chan struct{})
	return Job{
		Tenant: tenant, Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		Matrix: m, SolverName: "g1", RoundBudget: budget,
		OnRound: func(advisor.Round) { <-gate },
	}, gate
}

// Served results must be bit-equal to the unsharded streaming path over the
// same final epoch and tenant configuration, across solvers that use each
// cached artifact kind. (Multi-epoch equivalence is advisor's to test.)
func TestServeMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testGraph(t, 3, 4) // 12 nodes
	const instances = 16
	budget := solver.Budget{Nodes: 30_000}

	for _, solverName := range []string{"cp", "g1", "sa"} {
		t.Run(solverName, func(t *testing.T) {
			shared := testMatrix(rng, instances)
			srv := New(Config{Shards: 3})
			defer srv.Close()

			const tenants = 6
			tickets := make([]*Ticket, tenants)
			for tn := 0; tn < tenants; tn++ {
				var err error
				tickets[tn], err = srv.Submit(Job{
					Tenant:        fmt.Sprintf("tenant-%d", tn),
					Graph:         g,
					ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
					Matrix:        shared,
					SolverName:    solverName,
					ClusterK:      4,
					RoundBudget:   budget,
					Seed:          int64(100 + tn),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for tn := 0; tn < tenants; tn++ {
				res := tickets[tn].Wait()
				if res.Err != nil {
					t.Fatalf("tenant %d: %v", tn, res.Err)
				}
				want, err := advisor.SolveStream(finalEpoch(shared), advisor.StreamSolveConfig{
					Graph:         g,
					ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
					SolverName:    solverName,
					ClusterK:      4,
					RoundBudget:   budget,
					Seed:          int64(100 + tn),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Outcome.Deployment, want.Deployment) {
					t.Fatalf("tenant %d: served deployment %v != unsharded %v", tn, res.Outcome.Deployment, want.Deployment)
				}
				if res.Outcome.Cost != want.Cost {
					t.Fatalf("tenant %d: served cost %v != unsharded %v", tn, res.Outcome.Cost, want.Cost)
				}
			}
		})
	}
}

// Tenants sharing one matrix must share one preprocessing pass: every
// artifact kind computes once and the rest of the fleet hits the cache.
func TestServeCrossTenantCacheHits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testGraph(t, 3, 4)
	m := testMatrix(rng, 16)
	srv := New(Config{Shards: 4})
	defer srv.Close()

	const tenants = 8
	tickets := make([]*Ticket, tenants)
	for tn := range tickets {
		var err error
		tickets[tn], err = srv.Submit(Job{
			Tenant:        fmt.Sprintf("t%d", tn),
			Graph:         g,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
			Matrix:        m,
			SolverName:    "cp",
			ClusterK:      4,
			RoundBudget:   solver.Budget{Nodes: 10_000},
			Seed:          int64(tn),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	hits := 0
	for _, tk := range tickets {
		res := tk.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		hits += res.CacheHits
	}
	if hits != tenants-1 {
		t.Fatalf("cross-tenant hits = %d, want %d (one compute, rest adopt)", hits, tenants-1)
	}
	st := srv.Stats()
	if st.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 compute for the shared matrix", st.Cache.Misses)
	}
	if st.Served != tenants {
		t.Fatalf("served = %d, want %d", st.Served, tenants)
	}
}

// Admission control: with its one worker parked, a server admits exactly
// queueDepth more jobs and refuses the next with ErrBusy, counting it as
// rejected; the admitted jobs still drain, and a closed server refuses
// with ErrClosed.
func TestServeBackpressureAndBudget(t *testing.T) {
	g := testGraph(t, 2, 3)
	rng := rand.New(rand.NewSource(13))
	m := testMatrix(rng, 8)

	// Park the single worker in a job whose round we release, so the queue
	// can be observed deterministically.
	srv := New(Config{Shards: 1})
	blocker, gate := gatedJob(g, m, "blocker", solver.Budget{Nodes: 1000})
	quick := Job{
		Tenant: "quick", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		Matrix: m, SolverName: "g1", RoundBudget: solver.Budget{Nodes: 1000},
	}
	bt, err := srv.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker pulled the blocker, freeing its queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for srv.sched.queuedTasks() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	tks := []*Ticket{bt}
	for i := 0; i < queueDepth; i++ {
		j := quick
		j.Tenant = fmt.Sprintf("quick-%d", i%3)
		tk, err := srv.Submit(j)
		if err != nil {
			t.Fatalf("job %d of a %d-deep queue: %v", i+1, queueDepth, err)
		}
		tks = append(tks, tk)
	}
	if _, err := srv.Submit(quick); err != ErrBusy {
		t.Fatalf("queue-full error = %v, want ErrBusy", err)
	}
	if st := srv.Stats(); st.Rejected != 1 || st.Submitted != queueDepth+1 {
		t.Fatalf("rejected = %d, submitted = %d, want 1 and %d", st.Rejected, st.Submitted, queueDepth+1)
	}

	// Unblock: the blocker's round returns, then the queue drains.
	close(gate)
	for _, tk := range tks {
		if res := tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	srv.Close()
	if _, err := srv.Submit(quick); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if st := srv.Stats(); st.Served != queueDepth+1 || st.Rejected != 1 {
		t.Fatalf("served = %d, rejected = %d after close, want %d and 1", st.Served, st.Rejected, queueDepth+1)
	}
}

// A job whose solve fails — here a matrix with fewer instances than the
// graph has nodes — must surface its error through the ticket and count as
// failed, not served.
func TestServeJobFailureSurfaces(t *testing.T) {
	g := testGraph(t, 2, 3)
	srv := New(Config{Shards: 1})
	defer srv.Close()
	tk, err := srv.Submit(Job{
		Tenant: "t", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		Matrix: testMatrix(rand.New(rand.NewSource(3)), 4), SolverName: "g1", RoundBudget: solver.Budget{Nodes: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Err == nil {
		t.Fatal("a 4-instance matrix under a 6-node graph did not fail the job")
	}
	st := srv.Stats()
	if st.Failed != 1 || st.Served != 0 {
		t.Fatalf("failed=%d served=%d, want 1 and 0", st.Failed, st.Served)
	}
}

// Submit must validate jobs before touching any shard.
func TestServeSubmitValidation(t *testing.T) {
	g := testGraph(t, 2, 3)
	rng := rand.New(rand.NewSource(17))
	m := testMatrix(rng, 8)
	srv := New(Config{Shards: 1})
	defer srv.Close()
	ok := Job{Tenant: "t", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink}, Matrix: m,
		SolverName: "g1", RoundBudget: solver.Budget{Nodes: 1000}}
	bad := []func(*Job){
		func(j *Job) { j.Tenant = "" },
		func(j *Job) { j.Graph = nil },
		func(j *Job) { j.Matrix = nil },
		func(j *Job) { j.Metric = advisor.MetricP99 }, // no TailMatrix
		func(j *Job) { j.Metric = advisor.MetricMeanPlusStd },
		func(j *Job) { j.RoundBudget = solver.Budget{} },
	}
	for i, mut := range bad {
		j := ok
		mut(&j)
		if _, err := srv.Submit(j); err == nil {
			t.Fatalf("bad job %d accepted", i)
		}
	}
	tk, err := srv.Submit(ok)
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// End-to-end starvation check: with one worker, a hot tenant's 4-job
// backlog must yield to later-arriving light tenants after its first
// dispatch. Each job parks in OnRound on an unbuffered gate, so the running
// job is exactly the one whose gate send succeeds — observing the true
// dispatch order without races.
func TestServeHotTenantCannotStarveLights(t *testing.T) {
	g := testGraph(t, 2, 3)
	m := testMatrix(rand.New(rand.NewSource(29)), 8)
	srv := New(Config{Shards: 1})
	defer srv.Close()

	type sub struct {
		tenant string
		gate   chan struct{}
		tk     *Ticket
	}
	var subs []*sub
	submit := func(tenant string) {
		t.Helper()
		job, gate := gatedJob(g, m, tenant, solver.Budget{Nodes: 1000})
		s := &sub{tenant: tenant, gate: gate}
		var err error
		s.tk, err = srv.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	for i := 0; i < 4; i++ {
		submit("hot")
	}
	for _, l := range []string{"light-a", "light-b", "light-c"} {
		submit(l)
	}

	var order []string
	remaining := subs
	for len(remaining) > 0 {
		cases := make([]reflect.SelectCase, len(remaining))
		for i, s := range remaining {
			cases[i] = reflect.SelectCase{
				Dir: reflect.SelectSend, Chan: reflect.ValueOf(s.gate), Send: reflect.ValueOf(struct{}{}),
			}
		}
		chosen, _, _ := reflect.Select(cases)
		s := remaining[chosen]
		if res := s.tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		order = append(order, s.tenant)
		remaining = append(remaining[:chosen:chosen], remaining[chosen+1:]...)
	}
	want := []string{"hot", "light-a", "light-b", "light-c", "hot", "hot", "hot"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
}

// Two workers pulling two tenants' interleaved backlogs from the one ready
// queue must not change a single output bit: whichever worker runs a job,
// its deployment and cost equal the streaming path run directly.
func TestServeWorkStealingBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testGraph(t, 3, 4)
	shared := testMatrix(rng, 16)
	budget := solver.Budget{Nodes: 30_000}
	tenants := []string{"tenant-0", "tenant-1"}
	const jobsPer = 4

	srv := New(Config{Shards: 2})
	defer srv.Close()
	var tks []*Ticket
	for j := 0; j < jobsPer; j++ {
		for _, tn := range tenants {
			tk, err := srv.Submit(Job{
				Tenant: tn, Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
				Matrix: shared, SolverName: "cp", ClusterK: 4,
				RoundBudget: budget, Seed: int64(j),
			})
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
	}
	for i, tk := range tks {
		res := tk.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		j := i / len(tenants)
		want, err := advisor.SolveStream(finalEpoch(shared), advisor.StreamSolveConfig{
			Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink}, SolverName: "cp",
			ClusterK: 4, RoundBudget: budget, Seed: int64(j),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Outcome.Deployment, want.Deployment) || res.Outcome.Cost != want.Cost {
			t.Fatalf("served result diverged from SolveStream for %s seed %d", res.Tenant, j)
		}
	}
}

// 16 goroutines hammer submission over three shared matrices, a
// 2-fingerprint cache (eviction), and 4 pulling workers at once;
// run under -race in CI, any ordering bug surfaces as a data race or a
// failed job, and every served result must be bit-equal to the unsharded
// path over the same final epoch.
func TestServeRaceHammer(t *testing.T) {
	g := testGraph(t, 2, 4)
	srv := New(Config{Shards: 4, Cache: NewCache(2)})
	defer srv.Close()
	rng := rand.New(rand.NewSource(43))
	matrices := []*core.CostMatrix{testMatrix(rng, 10), testMatrix(rng, 10), testMatrix(rng, 10)}
	budget := solver.Budget{Nodes: 2000}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				m, seed := matrices[(w+j)%len(matrices)], int64(w*10+j)
				tk, err := srv.Submit(Job{
					Tenant: fmt.Sprintf("tenant-%d", w%5), Graph: g,
					ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
					Matrix:        m, SolverName: "cp", ClusterK: 3,
					RoundBudget: budget, Seed: seed,
				})
				if err != nil {
					errs <- err
					continue
				}
				res := tk.Wait()
				if res.Err != nil {
					errs <- res.Err
					continue
				}
				want, err := advisor.SolveStream(finalEpoch(m), advisor.StreamSolveConfig{
					Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
					SolverName: "cp", ClusterK: 3, RoundBudget: budget, Seed: seed,
				})
				if err != nil {
					errs <- err
					continue
				}
				if !reflect.DeepEqual(res.Outcome.Deployment, want.Deployment) || res.Outcome.Cost != want.Cost {
					errs <- fmt.Errorf("worker %d job %d: served result diverged from unsharded", w, j)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
