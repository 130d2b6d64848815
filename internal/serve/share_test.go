package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// groupAdvise is the advise every sharing test repeats for a tenant: cold,
// seeded and node-bounded, so equal matrices give bit-equal advice.
func groupAdvise(t *testing.T, d *Daemon, tenant string) *Result {
	t.Helper()
	return adviseOK(t, d, AdviseRequest{
		Tenant: tenant, Graph: testGraph(t, 2, 3), ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "cp", ClusterK: 4, RoundBudget: solver.Budget{Nodes: 10_000}, Seed: 3, NoWarmStart: true,
	})
}

func sameAdvice(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Outcome.Deployment, want.Outcome.Deployment) || got.Outcome.Cost != want.Outcome.Cost {
		t.Fatalf("%s: advice %v (%g), want %v (%g)", what,
			got.Outcome.Deployment, got.Outcome.Cost, want.Outcome.Deployment, want.Outcome.Cost)
	}
}

// sharesSnapshots fails unless tenants a and b hold one snapshot of each
// matrix between them.
func sharesSnapshots(t *testing.T, d *Daemon, a, b string) {
	t.Helper()
	sa, sb := session(t, d, a, false), session(t, d, b, false)
	if sa.mean.snap == nil || sa.mean.snap != sb.mean.snap || sa.tail.snap != sb.tail.snap {
		t.Fatalf("tenants %s and %s with equal content hold separate snapshots", a, b)
	}
}

// Tenants posting equal content commit one snapshot between them; when one
// diverges the other's snapshot, fingerprint and advice stay as they were;
// and a restart replays them onto one snapshot again.
func TestDaemonGroupSharesSnapshot(t *testing.T) {
	const n = 8
	m := testMatrix(rand.New(rand.NewSource(61)), n)
	dir := t.TempDir()
	d := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	for _, tenant := range []string{"a", "b"} {
		if _, _, err := d.AppendEpoch(tenant, n, fullRows(m), &TailUpdate{Pct: 99, Rows: tailRowsOf(m)}); err != nil {
			t.Fatal(err)
		}
	}
	sharesSnapshots(t, d, "a", "b")
	st := d.Stats().Server.Cache
	if st.Snapshots != 2 || st.SnapshotHolders != 4 || st.SnapshotBytes != 2*8*n*n {
		t.Fatalf("cache %+v: want 2 snapshots of %d bytes in all, held 4 times", st, 2*8*n*n)
	}
	want := groupAdvise(t, d, "a")

	a, b := session(t, d, "a", false), session(t, d, "b", false)
	snap, fp := a.mean.snap, a.mean.fp
	moved := make([]float64, n)
	copy(moved, m.Row(2))
	moved[5] *= 1.5
	if _, _, err := d.AppendEpoch("b", n, []wal.RowDelta{{Row: 2, Values: moved}}, nil); err != nil {
		t.Fatal(err)
	}
	if a.mean.snap != snap || a.mean.fp != fp || !snap.Identical(m) {
		t.Fatal("a tenant's divergence moved its group partner's snapshot")
	}
	if b.mean.snap == snap || b.mean.snap.At(2, 5) != moved[5] || b.tail.snap != a.tail.snap {
		t.Fatal("the diverged tenant does not hold its own mean beside the shared tail")
	}
	if st := d.Stats().Server.Cache; st.Snapshots != 3 || st.SnapshotHolders != 4 {
		t.Fatalf("cache %+v after divergence: want 3 snapshots held 4 times", st)
	}
	sameAdvice(t, "after the partner diverged", groupAdvise(t, d, "a"), want)

	// Back to the group's content: b shares a's snapshot again.
	if _, _, err := d.AppendEpoch("b", n, []wal.RowDelta{{Row: 2, Values: slices.Clone(m.Row(2))}}, nil); err != nil {
		t.Fatal(err)
	}
	sharesSnapshots(t, d, "a", "b")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	defer re.Close()
	sharesSnapshots(t, re, "a", "b")
	if got := session(t, re, "a", false).mean.fp; got != fp {
		t.Fatalf("replayed fingerprint %016x, want %016x", uint64(got), uint64(fp))
	}
	sameAdvice(t, "after replay", groupAdvise(t, re, "b"), want)
}

// TestDaemonGroupHoldsOneCopyPerContent: 8 tenants in 4 groups, each group
// posting one epoch twice, hold one copy of each group's matrices, not one
// per tenant.
func TestDaemonGroupHoldsOneCopyPerContent(t *testing.T) {
	const groups, n = 4, 300
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for g := 0; g < groups; g++ {
		m := testMatrix(rand.New(rand.NewSource(int64(g))), n)
		for _, member := range []string{"x", "y"} {
			if _, _, err := d.AppendEpoch(fmt.Sprintf("g%d%s", g, member), n, fullRows(m), &TailUpdate{Pct: 99, Rows: tailRowsOf(m)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := int64(heap()) - int64(before)
	oneCopy := int64(groups * 2 * n * n * 8)
	if grown > oneCopy*5/4 {
		t.Fatalf("heap grew %d bytes for %d groups' first epochs, want at most 1.25 × %d (one copy per content)",
			grown, groups, oneCopy)
	}
	if st := d.Stats().Server.Cache; st.Snapshots != groups*2 || st.SnapshotHolders != groups*4 || st.SnapshotBytes != oneCopy {
		t.Fatalf("cache %+v: want %d snapshots, %d holders, %d bytes", st, groups*2, groups*4, oneCopy)
	}
}

// A closed Daemon that is still referenced pins no tenant matrix, and its
// Stats still works and reports no tenants.
func TestDaemonCloseReleasesState(t *testing.T) {
	const n = 8
	m := testMatrix(rand.New(rand.NewSource(62)), n)
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	if _, _, err := d.AppendEpoch("a", n, fullRows(m), &TailUpdate{Pct: 99, Rows: tailRowsOf(m)}); err != nil {
		t.Fatal(err)
	}
	groupAdvise(t, d, "a") // the cache holds a rounded set over the snapshot too
	collected := make(chan struct{})
	func() {
		runtime.SetFinalizer(session(t, d, "a", false).mean.snap, func(*core.CostMatrix) { close(collected) })
	}()
	gc := func() bool {
		for i := 0; i < 20; i++ {
			runtime.GC()
			select {
			case <-collected:
				return true
			case <-time.After(10 * time.Millisecond):
			}
		}
		return false
	}
	if gc() {
		t.Fatal("the snapshot was collected while the daemon serves it")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !gc() {
		t.Fatal("a closed daemon still pins its tenant's snapshot")
	}
	st := d.Stats()
	if len(st.Tenants) != 0 || st.Server.Cache.Matrices != 0 || st.Server.Cache.Snapshots != 0 || st.Server.Cache.Bytes != 0 {
		t.Fatalf("stats after Close %+v: want no tenants and an empty cache", st)
	}
	if st.Server.Served != 1 {
		t.Fatalf("stats after Close count %d served advises, want 1", st.Server.Served)
	}
	runtime.KeepAlive(d)
}

// Stats may run while Close drops the daemon's state (run under -race).
func TestDaemonStatsDuringClose(t *testing.T) {
	const n = 8
	m := testMatrix(rand.New(rand.NewSource(63)), n)
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	for _, tenant := range []string{"a", "b", "c"} {
		if _, _, err := d.AppendEpoch(tenant, n, fullRows(m), nil); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if st := d.Stats(); len(st.Tenants) != 0 && len(st.Tenants) != 3 {
				t.Errorf("Stats saw %d tenants, want 3 or none", len(st.Tenants))
				return
			}
		}
	}()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if st := d.Stats(); len(st.Tenants) != 0 || st.Server.Cache.Snapshots != 0 {
		t.Fatalf("stats after Close %+v", st)
	}
}

// Group tenants posting the same epochs at once, with advises between, end
// on one shared snapshot and equal advice (run under -race): commits race
// on the cache's canonical snapshots while solves read them.
func TestDaemonGroupConcurrentEpochs(t *testing.T) {
	const epochs = 6
	m := crashBase()
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 2})
	defer d.Close()
	tenants := []string{"a", "b"}
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for e := 1; e <= epochs; e++ {
				if _, _, err := d.AppendEpoch(tenant, crashN, crashRows(m, e), nil); err != nil {
					t.Error(err)
					return
				}
				res, err := d.Advise(AdviseRequest{
					Tenant: tenant, Graph: testGraph(t, 2, 3), ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
					SolverName: "cp", ClusterK: 4, RoundBudget: solver.Budget{Nodes: 2_000}, Seed: 3, NoWarmStart: true,
				})
				if err == nil {
					err = res.Err
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(tenant)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sharesSnapshots(t, d, tenants[0], tenants[1])
	if st := d.Stats().Server.Cache; st.Snapshots != 1 || st.SnapshotHolders != 2 {
		t.Fatalf("cache %+v: want one snapshot held twice", st)
	}
	sameAdvice(t, "group partner", groupAdvise(t, d, tenants[1]), groupAdvise(t, d, tenants[0]))
}
