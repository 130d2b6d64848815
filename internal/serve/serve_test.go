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

// One tenant must always land on one shard, distinct tenants spread, and
// every tenant keeps the home shard of the retired tenant/datacenter key
// with an empty datacenter: fnv32a over the name and a NUL byte.
func TestServeRoutingStable(t *testing.T) {
	srv := New(Config{Shards: 4})
	defer srv.Close()
	a := srv.shardFor("alice")
	for i := 0; i < 10; i++ {
		if srv.shardFor("alice") != a {
			t.Fatal("routing is not stable")
		}
	}
	if a == srv.shardFor("bob") && a == srv.shardFor("carol") && a == srv.shardFor("dave") {
		t.Fatal("all distinct tenants landed on one shard (suspicious hash)")
	}
	// fnv32a("alice\x00") and fnv32a("bob\x00"), computed independently.
	for tenant, sum := range map[string]uint32{"alice": 0xa1a554a5, "bob": 0xfeaf2dbc} {
		if got, want := srv.shardFor(tenant), int(sum%4); got != want {
			t.Errorf("shardFor(%q) = %d, want %d", tenant, got, want)
		}
	}
}

// Admission control: full queues reject with ErrBusy, budget exhaustion
// with ErrOverBudget, closed servers with ErrClosed; rejected and drained
// jobs release their accounted budget.
func TestServeBackpressureAndBudget(t *testing.T) {
	g := testGraph(t, 2, 3)
	rng := rand.New(rand.NewSource(13))
	m := testMatrix(rng, 8)

	// Park the single shard in a job whose round we release, so queue and
	// budget accounting can be observed deterministically.
	srv := New(Config{Shards: 1, QueueDepth: 1, MaxPendingBudget: 250 * time.Millisecond})
	blocker, gate := gatedJob(g, m, "blocker", solver.Budget{Time: 100 * time.Millisecond})
	quick := Job{
		Tenant: "quick", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		Matrix: m, SolverName: "g1", RoundBudget: solver.Budget{Time: 100 * time.Millisecond},
	}
	bt, err := srv.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker pulled the blocker, freeing the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for srv.sched.queuedTasks() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	qt, err := srv.Submit(quick) // occupies the queue slot
	if err != nil {
		t.Fatal(err)
	}
	over := quick
	over.Tenant = "over"
	if _, err := srv.Submit(over); err != ErrOverBudget {
		t.Fatalf("third concurrent job error = %v, want ErrOverBudget", err)
	}
	cheap := quick
	cheap.Tenant = "cheap"
	cheap.RoundBudget = solver.Budget{Time: 10 * time.Millisecond}
	if _, err := srv.Submit(cheap); err != ErrBusy {
		t.Fatalf("queue-full error = %v, want ErrBusy", err)
	}
	if got := srv.Stats().Rejected; got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}

	// Unblock: the blocker's round returns, then quick runs.
	close(gate)
	if res := bt.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := qt.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := srv.Stats().PendingBudget; got != 0 {
		t.Fatalf("pending budget after drain = %v, want 0", got)
	}
	srv.Close()
	if _, err := srv.Submit(quick); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
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
	if srv.Cache() == nil {
		t.Fatal("server has no cache")
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

// Work stealing must occur when one shard homes all the load — and must not
// change a single output bit: stolen jobs produce deployments identical to
// the unsharded streaming path, and to a stealing-disabled server.
func TestServeWorkStealingBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testGraph(t, 3, 4)
	shared := testMatrix(rng, 16)
	budget := solver.Budget{Nodes: 30_000}

	// Two tenants that both home on shard 0, so shard 1 can only ever run
	// stolen work.
	probe := New(Config{Shards: 2})
	var tenants []string
	for i := 0; len(tenants) < 2; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if probe.shardFor(name) == 0 {
			tenants = append(tenants, name)
		}
	}
	probe.Close()
	const jobsPer = 4
	run := func(srv *Server) map[string][]*advisor.StreamOutcome {
		t.Helper()
		defer srv.Close()
		var tks []*Ticket
		var names []string
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
				names = append(names, tn)
			}
		}
		out := map[string][]*advisor.StreamOutcome{}
		for i, tk := range tks {
			res := tk.Wait()
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			out[names[i]] = append(out[names[i]], res.Outcome)
		}
		return out
	}

	// Whether a steal actually lands is a scheduler race — shard 0 can
	// drain both serialized tenants before shard 1's steal attempt finds
	// one ready — so retry the whole run until one does. The outputs are
	// deterministic either way; the retries only chase the counter.
	var stealing map[string][]*advisor.StreamOutcome
	stole := false
	for attempt := 0; attempt < 10 && !stole; attempt++ {
		srv := New(Config{Shards: 2})
		stealing = run(srv)
		stole = srv.Stats().Steals > 0
	}
	if !stole {
		t.Fatal("no steals in 10 runs despite an idle shard and a loaded one")
	}
	pinned := New(Config{Shards: 2, DisableStealing: true})
	static := run(pinned)
	if got := pinned.Stats().Steals; got != 0 {
		t.Fatalf("stealing-disabled server stole %d times", got)
	}

	for j := 0; j < jobsPer; j++ {
		for _, tn := range tenants {
			want, err := advisor.SolveStream(finalEpoch(shared), advisor.StreamSolveConfig{
				Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink}, SolverName: "cp",
				ClusterK: 4, RoundBudget: budget, Seed: int64(j),
			})
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]*advisor.StreamOutcome{
				"stealing": stealing[tn][j], "static": static[tn][j],
			} {
				if !reflect.DeepEqual(got.Deployment, want.Deployment) || got.Cost != want.Cost {
					t.Fatalf("%s server diverged from unsharded for %s seed %d", name, tn, j)
				}
			}
		}
	}
}

// The per-tenant pending-budget cap rejects one tenant's excess while other
// tenants keep submitting, through the public Config surface.
func TestServePerTenantBudget(t *testing.T) {
	g := testGraph(t, 2, 3)
	m := testMatrix(rand.New(rand.NewSource(37)), 8)
	srv := New(Config{Shards: 1, MaxTenantPendingBudget: 250 * time.Millisecond})
	job := func(tenant string) (Job, chan struct{}) {
		return gatedJob(g, m, tenant, solver.Budget{Time: 100 * time.Millisecond})
	}
	var tks []*Ticket
	var gates []chan struct{}
	for i := 0; i < 2; i++ {
		j, gate := job("greedy-tenant")
		tk, err := srv.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		tks, gates = append(tks, tk), append(gates, gate)
	}
	if j, _ := job("greedy-tenant"); func() error { _, err := srv.Submit(j); return err }() != ErrOverBudget {
		t.Fatal("third 100ms job for one tenant was not rejected with ErrOverBudget")
	}
	j, gate := job("modest-tenant")
	tk, err := srv.Submit(j)
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	tks, gates = append(tks, tk), append(gates, gate)

	for _, gate := range gates {
		close(gate)
	}
	for _, tk := range tks {
		if res := tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	srv.Close()
}

// The transposed-graph family is keyed by graph content: tenants with
// different matrices over one topology share the transpose, and the adopted
// artifact is pointer-identical.
func TestCacheTransposedGraphFamily(t *testing.T) {
	g := core.NewGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(41))
	p1, err := solver.NewProblem(g, testMatrix(rng, 6), solver.LongestPath)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := solver.NewProblem(g, testMatrix(rng, 6), solver.LongestPath)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	gfp := g.Fingerprint()
	if c.TransposedGraph(gfp, p1.Prep()) {
		t.Fatal("first requester reported a hit")
	}
	if !c.TransposedGraph(gfp, p2.Prep()) {
		t.Fatal("second requester over the same graph missed")
	}
	if p1.Prep().TransposedGraph() != p2.Prep().TransposedGraph() {
		t.Fatal("transposed graph not shared by reference")
	}
	if st := c.Stats(); st.Graphs != 1 {
		t.Fatalf("graph entries = %d, want 1", st.Graphs)
	}
	// Repeated requests from a Prep that already holds its own build are
	// misses, never errors.
	if c.TransposedGraph(gfp, p1.Prep()) {
		t.Fatal("repeat adoption reported a hit")
	}
}

// 16 goroutines hammer submission over three shared matrices, a
// 2-fingerprint cache (eviction), and 4 pulling shards (steals) at once;
// run under -race in CI, any ordering bug surfaces as a data race or a
// failed job, and every served result must be bit-equal to the unsharded
// path over the same final epoch.
func TestServeRaceHammer(t *testing.T) {
	g := testGraph(t, 2, 4)
	srv := New(Config{Shards: 4, Cache: NewCache(2), QueueDepth: 32})
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
