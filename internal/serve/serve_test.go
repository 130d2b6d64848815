package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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

// postMatrix posts m as the tenant's first epoch, every row in full.
func postMatrix(t testing.TB, d *Daemon, tenant string, m *core.CostMatrix) {
	t.Helper()
	if _, _, err := d.AppendEpoch(tenant, m.Size(), fullRows(m), nil); err != nil {
		t.Fatal(err)
	}
}

// pendingAdvise is an Advise running on a goroutine of its own, so a test
// can hold several in the daemon's queues at once.
type pendingAdvise struct {
	res  *Result
	err  error
	done chan struct{}
}

func adviseAsync(d *Daemon, req AdviseRequest) *pendingAdvise {
	p := &pendingAdvise{done: make(chan struct{})}
	go func() {
		p.res, p.err = d.Advise(req)
		close(p.done)
	}()
	return p
}

// wait returns the advise's result; an admission error fails the test.
func (p *pendingAdvise) wait(t testing.TB) *Result {
	t.Helper()
	<-p.done
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.res
}

// awaitAdmitted waits until the daemon has admitted n advises in all, which
// fixes the admission order of advises started on their own goroutines.
func awaitAdmitted(t testing.TB, d *Daemon, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Server.Submitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("daemon admitted %d advises, want %d", d.Stats().Server.Submitted, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedAdvise returns a valid request whose solve parks in OnRound until
// the test sends on (or closes) the returned gate: the way to hold a solve
// slot, and to observe which advise is running, without racing the solver.
func gatedAdvise(g *core.Graph, tenant string, budget solver.Budget) (AdviseRequest, chan struct{}) {
	gate := make(chan struct{})
	return AdviseRequest{
		Tenant: tenant, Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "g1", RoundBudget: budget,
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
			d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 3})
			defer d.Close()

			const tenants = 6
			pending := make([]*pendingAdvise, tenants)
			for tn := 0; tn < tenants; tn++ {
				tenant := fmt.Sprintf("tenant-%d", tn)
				postMatrix(t, d, tenant, shared)
				pending[tn] = adviseAsync(d, AdviseRequest{
					Tenant:        tenant,
					Graph:         g,
					ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
					SolverName:    solverName,
					ClusterK:      4,
					RoundBudget:   budget,
					Seed:          int64(100 + tn),
				})
			}
			for tn := 0; tn < tenants; tn++ {
				res := pending[tn].wait(t)
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
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 4})
	defer d.Close()

	const tenants = 8
	pending := make([]*pendingAdvise, tenants)
	for tn := range pending {
		tenant := fmt.Sprintf("t%d", tn)
		postMatrix(t, d, tenant, m)
		pending[tn] = adviseAsync(d, AdviseRequest{
			Tenant:        tenant,
			Graph:         g,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
			SolverName:    "cp",
			ClusterK:      4,
			RoundBudget:   solver.Budget{Nodes: 10_000},
			Seed:          int64(tn),
		})
	}
	hits := 0
	for _, p := range pending {
		res := p.wait(t)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		hits += res.CacheHits
	}
	if hits != tenants-1 {
		t.Fatalf("cross-tenant hits = %d, want %d (one compute, rest adopt)", hits, tenants-1)
	}
	st := d.Stats().Server
	if st.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 compute for the shared matrix", st.Cache.Misses)
	}
	if st.Served != tenants {
		t.Fatalf("served = %d, want %d", st.Served, tenants)
	}
}

// Admission control: with its one solve slot held, a daemon admits exactly
// queueDepth more advises and refuses the next with ErrBusy, counting it as
// rejected; the admitted advises still drain, and a closed daemon refuses
// with ErrClosed.
func TestServeBackpressureAndBudget(t *testing.T) {
	g := testGraph(t, 2, 3)
	rng := rand.New(rand.NewSource(13))
	m := testMatrix(rng, 8)

	// Hold the single solve slot with an advise whose round we release, so
	// the queue can be observed deterministically.
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	for _, tenant := range []string{"blocker", "quick", "quick-0", "quick-1", "quick-2"} {
		postMatrix(t, d, tenant, m)
	}
	blocker, gate := gatedAdvise(g, "blocker", solver.Budget{Nodes: 1000})
	quick := AdviseRequest{
		Tenant: "quick", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "g1", RoundBudget: solver.Budget{Nodes: 1000},
	}
	pending := []*pendingAdvise{adviseAsync(d, blocker)}
	// Wait until the blocker was granted the slot, freeing its queue slot.
	awaitAdmitted(t, d, 1)
	deadline := time.Now().Add(2 * time.Second)
	for d.sched.queuedTasks() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the blocker was never granted the solve slot")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < queueDepth; i++ {
		req := quick
		req.Tenant = fmt.Sprintf("quick-%d", i%3)
		pending = append(pending, adviseAsync(d, req))
	}
	awaitAdmitted(t, d, queueDepth+1)
	if _, err := d.Advise(quick); err != ErrBusy {
		t.Fatalf("queue-full error = %v, want ErrBusy", err)
	}
	if st := d.Stats().Server; st.Rejected != 1 || st.Submitted != queueDepth+1 {
		t.Fatalf("rejected = %d, submitted = %d, want 1 and %d", st.Rejected, st.Submitted, queueDepth+1)
	}

	// Unblock: the blocker's round returns, then the queue drains.
	close(gate)
	for _, p := range pending {
		if res := p.wait(t); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Advise(quick); err != ErrClosed {
		t.Fatalf("advise after close = %v, want ErrClosed", err)
	}
	if st := d.Stats().Server; st.Served != queueDepth+1 || st.Rejected != 1 {
		t.Fatalf("served = %d, rejected = %d after close, want %d and 1", st.Served, st.Rejected, queueDepth+1)
	}
}

// An advise whose solve fails — here a matrix with fewer instances than the
// graph has nodes — must surface its error in its Result and count as
// failed, not served.
func TestServeJobFailureSurfaces(t *testing.T) {
	g := testGraph(t, 2, 3)
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	postMatrix(t, d, "t", testMatrix(rand.New(rand.NewSource(3)), 4))
	res, err := d.Advise(AdviseRequest{
		Tenant: "t", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "g1", RoundBudget: solver.Budget{Nodes: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("a 4-instance matrix under a 6-node graph did not fail the advise")
	}
	st := d.Stats().Server
	if st.Failed != 1 || st.Served != 0 {
		t.Fatalf("failed=%d served=%d, want 1 and 0", st.Failed, st.Served)
	}
}

// Advise must refuse a bad request before admitting it: each row is
// refused, and none reaches the queue.
func TestServeSubmitValidation(t *testing.T) {
	g := testGraph(t, 2, 3)
	rng := rand.New(rand.NewSource(17))
	m := testMatrix(rng, 8)
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	postMatrix(t, d, "t", m)
	ok := AdviseRequest{Tenant: "t", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "g1", RoundBudget: solver.Budget{Nodes: 1000}}
	bad := []struct {
		name string
		mut  func(*AdviseRequest)
	}{
		{"no tenant", func(r *AdviseRequest) { r.Tenant = "" }},
		{"unknown tenant", func(r *AdviseRequest) { r.Tenant = "ghost" }},
		{"no graph", func(r *AdviseRequest) { r.Graph = nil }},
		{"unknown objective", func(r *AdviseRequest) { r.Objective = "shortest-link" }},
		{"p99 without a tail", func(r *AdviseRequest) { r.Metric = advisor.MetricP99 }},
		{"mean+sd", func(r *AdviseRequest) { r.Metric = advisor.MetricMeanPlusStd }},
		{"unbounded budget", func(r *AdviseRequest) { r.RoundBudget = solver.Budget{} }},
		{"negative node budget", func(r *AdviseRequest) { r.RoundBudget = solver.Budget{Nodes: -1} }},
		{"negative time budget", func(r *AdviseRequest) { r.RoundBudget = solver.Budget{Time: -1, Nodes: 1000} }},
	}
	for _, tc := range bad {
		req := ok
		tc.mut(&req)
		if _, err := d.Advise(req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if n := d.Stats().Server.Submitted; n != 0 {
		t.Fatalf("%d refused advises reached the queue", n)
	}
	if res := adviseOK(t, d, ok); res.Outcome.Deployment == nil {
		t.Fatal("valid advise returned no deployment")
	}
}

// End-to-end starvation check: with one solve slot, a hot tenant's 4-advise
// backlog must yield to later-arriving light tenants after its first
// dispatch. Each advise parks in OnRound on an unbuffered gate, so the
// running advise is exactly the one whose gate send succeeds — observing
// the true dispatch order without races.
func TestServeHotTenantCannotStarveLights(t *testing.T) {
	g := testGraph(t, 2, 3)
	m := testMatrix(rand.New(rand.NewSource(29)), 8)
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()

	type sub struct {
		tenant string
		gate   chan struct{}
		p      *pendingAdvise
	}
	var subs []*sub
	submit := func(tenant string) {
		t.Helper()
		req, gate := gatedAdvise(g, tenant, solver.Budget{Nodes: 1000})
		subs = append(subs, &sub{tenant: tenant, gate: gate, p: adviseAsync(d, req)})
		awaitAdmitted(t, d, int64(len(subs)))
	}
	for _, tenant := range []string{"hot", "light-a", "light-b", "light-c"} {
		postMatrix(t, d, tenant, m)
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
		if res := s.p.wait(t); res.Err != nil {
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

// Workers bounds the solves running at once: with two slots, two of three
// tenants' advises enter their rounds and the third waits admitted until a
// slot frees. A freed slot goes to the most-starved ready tenant, not to
// the one admitted first, and a closed daemon leaves no goroutine behind.
func TestServeWorkersBoundConcurrentSolves(t *testing.T) {
	before := runtime.NumGoroutine()
	g := testGraph(t, 2, 3)
	m := testMatrix(rand.New(rand.NewSource(41)), 8)
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 2})
	for _, tenant := range []string{"a", "b", "c"} {
		postMatrix(t, d, tenant, m)
	}

	entered := make(chan string, 8)
	gates := map[string][]chan struct{}{} // each tenant's unreleased gates, oldest first
	release := func(tenant string) {
		close(gates[tenant][0])
		gates[tenant] = gates[tenant][1:]
	}
	var pending []*pendingAdvise
	submit := func(tenant string, nodes int64) {
		t.Helper()
		req, gate := gatedAdvise(g, tenant, solver.Budget{Nodes: nodes})
		park := req.OnRound
		req.OnRound = func(r advisor.Round) {
			entered <- tenant
			park(r)
		}
		gates[tenant] = append(gates[tenant], gate)
		pending = append(pending, adviseAsync(d, req))
		awaitAdmitted(t, d, int64(len(pending)))
	}
	next := func() string {
		t.Helper()
		select {
		case tenant := <-entered:
			return tenant
		case <-time.After(5 * time.Second):
			t.Fatal("no advise entered its round")
			return ""
		}
	}

	// a charges 5000 per advise, b and c 1000.
	submit("a", 5000)
	submit("b", 1000)
	submit("c", 1000)
	if got := []string{next(), next()}; !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("first two advises to enter %v, want [a b]", got)
	}
	if q := d.sched.queuedTasks(); q != 1 || len(entered) != 0 {
		t.Fatalf("with both slots held: %d queued, %d more entered; want 1 queued, none entered", q, len(entered))
	}
	release("a")
	if got := next(); got != "c" {
		t.Fatalf("freed slot went to %q, want the waiting c", got)
	}

	// b and c hold the slots. a (vtime 5000) is admitted before b's second
	// advise (b at vtime 1000 once its first is done), so b's is the
	// most-starved when b's slot frees.
	submit("a", 5000)
	submit("b", 1000)
	release("b")
	if got := next(); got != "b" {
		t.Fatalf("freed slot went to %q, want most-starved b over a, admitted first", got)
	}
	release("c")
	if got := next(); got != "a" {
		t.Fatalf("last advise to enter was %q, want a", got)
	}
	release("a")
	release("b")
	for _, p := range pending {
		if res := p.wait(t); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before OpenDaemon", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// Two solve slots granted from the one ready queue over two tenants'
// interleaved backlogs must not change a single output bit: whichever order
// the advises are granted in, each one's deployment and cost equal the
// streaming path run directly.
func TestServeSolveSlotsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testGraph(t, 3, 4)
	shared := testMatrix(rng, 16)
	budget := solver.Budget{Nodes: 30_000}
	tenants := []string{"tenant-0", "tenant-1"}
	const jobsPer = 4

	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 2})
	defer d.Close()
	for _, tn := range tenants {
		postMatrix(t, d, tn, shared)
	}
	var pending []*pendingAdvise
	for j := 0; j < jobsPer; j++ {
		for _, tn := range tenants {
			pending = append(pending, adviseAsync(d, AdviseRequest{
				Tenant: tn, Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
				SolverName: "cp", ClusterK: 4,
				RoundBudget: budget, Seed: int64(j), NoWarmStart: true,
			}))
		}
	}
	for i, p := range pending {
		res := p.wait(t)
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

// 16 goroutines hammer admission over three shared matrices, a
// 2-fingerprint cache (eviction), and 4 solve slots at once;
// run under -race in CI, any ordering bug surfaces as a data race or a
// failed advise, and every served result must be bit-equal to the
// unsharded path over the same final epoch.
func TestServeRaceHammer(t *testing.T) {
	g := testGraph(t, 2, 4)
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 4})
	defer d.Close()
	d.cache = NewCache(2) // before any epoch, so every hold lands in it
	rng := rand.New(rand.NewSource(43))
	matrices := []*core.CostMatrix{testMatrix(rng, 10), testMatrix(rng, 10), testMatrix(rng, 10)}
	budget := solver.Budget{Nodes: 2000}
	// Tenant w%5 advises over matrix k as tenant-<w%5>-m<k>: a tenant holds
	// one matrix, so the jobs over each matrix come from five tenants.
	tenant := func(w, k int) string { return fmt.Sprintf("tenant-%d-m%d", w%5, k) }
	for w := 0; w < 5; w++ {
		for k, m := range matrices {
			postMatrix(t, d, tenant(w, k), m)
		}
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				k, seed := (w+j)%len(matrices), int64(w*10+j)
				res, err := d.Advise(AdviseRequest{
					Tenant: tenant(w, k), Graph: g,
					ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
					SolverName:    "cp", ClusterK: 3,
					RoundBudget: budget, Seed: seed, NoWarmStart: true,
				})
				if err == nil {
					err = res.Err
				}
				if err != nil {
					errs <- err
					continue
				}
				want, err := advisor.SolveStream(finalEpoch(matrices[k]), advisor.StreamSolveConfig{
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
	if st := d.Stats().Server.Cache; st.Evictions == 0 {
		t.Error("three matrices through a 2-fingerprint cache evicted nothing")
	}
}
