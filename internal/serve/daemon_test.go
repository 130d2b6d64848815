package serve

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// fullRows turns a matrix into a complete RowDelta set (the first epoch of
// a tenant).
func fullRows(m *core.CostMatrix) []wal.RowDelta {
	rows := make([]wal.RowDelta, m.Size())
	for i := range rows {
		vals := make([]float64, m.Size())
		copy(vals, m.Row(i))
		rows[i] = wal.RowDelta{Row: i, Values: vals}
	}
	return rows
}

func openDaemon(t *testing.T, cfg DaemonConfig) *Daemon {
	t.Helper()
	d, err := OpenDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// session returns the tenant's session, creating it when create is set.
func session(t *testing.T, d *Daemon, tenant string, create bool) *tenantSession {
	t.Helper()
	s, err := d.enter(tenant, create)
	if err != nil {
		t.Fatal(err)
	}
	d.calls.Done()
	return s
}

func adviseOK(t *testing.T, d *Daemon, req AdviseRequest) *Result {
	t.Helper()
	res, err := d.Advise(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

// TestDaemonRestartBitEqual is the tentpole contract: a daemon killed and
// reopened replays its WAL to the same fingerprints and serves advice
// bit-equal to a daemon that never died — same matrix bits, same recovered
// warm-start incumbent, same seeds, same deployment.
func TestDaemonRestartBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := testGraph(t, 2, 3)
	const n = 8
	m := testMatrix(rng, n)
	budget := solver.Budget{Nodes: 20_000}

	// drive pushes the same workload into any daemon: a full first epoch,
	// one advise, then two partial epochs.
	drive := func(d *Daemon) (core.Fingerprint, *Result) {
		t.Helper()
		if _, _, err := d.AppendEpoch("acme", n, fullRows(m), nil); err != nil {
			t.Fatal(err)
		}
		first := adviseOK(t, d, AdviseRequest{
			Tenant: "acme", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
			SolverName: "cp", ClusterK: 4, RoundBudget: budget, Seed: 1,
		})
		perturbed := make([]float64, n)
		copy(perturbed, m.Row(2))
		for j := range perturbed {
			if j != 2 {
				perturbed[j] *= 1.25
			}
		}
		var fp core.Fingerprint
		var err error
		for i := 0; i < 2; i++ {
			_, fp, err = d.AppendEpoch("acme", n, []wal.RowDelta{{Row: 2, Values: perturbed}}, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		return fp, first
	}

	// The control daemon lives through the whole workload.
	control := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	ctrlFP, _ := drive(control)
	want := adviseOK(t, control, AdviseRequest{
		Tenant: "acme", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "cp", ClusterK: 4, RoundBudget: budget, Seed: 2,
	})
	control.Close()

	// The crashed daemon dies (Close stands in for the kill; the
	// fault-injection suite covers dirtier deaths) after the same workload
	// and is reopened.
	dir := t.TempDir()
	crashed := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	crashFP, _ := drive(crashed)
	if crashFP != ctrlFP {
		t.Fatalf("workload fingerprints diverge before the restart: %016x != %016x", uint64(crashFP), uint64(ctrlFP))
	}
	crashed.Close()

	reopened := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	defer reopened.Close()
	st := reopened.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Fingerprint != ctrlFP || st.Tenants[0].Epoch != 3 {
		t.Fatalf("recovered state %+v, want epoch 3 fingerprint %016x", st.Tenants, uint64(ctrlFP))
	}
	if st.Tenants[0].WAL.RecoveredRecords == 0 {
		t.Fatal("recovery replayed no records")
	}

	got := adviseOK(t, reopened, AdviseRequest{
		Tenant: "acme", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "cp", ClusterK: 4, RoundBudget: budget, Seed: 2,
	})
	if !reflect.DeepEqual(got.Outcome.Deployment, want.Outcome.Deployment) || got.Outcome.Cost != want.Outcome.Cost {
		t.Fatalf("post-restart advice diverged: %v (%g) != %v (%g)",
			got.Outcome.Deployment, got.Outcome.Cost, want.Outcome.Deployment, want.Outcome.Cost)
	}

	// The recovered warm start means the reopened daemon cannot do worse
	// than the advice it had already served.
	if first := st.Tenants[0]; !first.Advised {
		t.Fatal("recovered session lost its advice")
	}
}

// TestDaemonCacheReseed: recovery warms the shared cache under the
// recovered fingerprint with exactly the rounded set the last advice's
// solver reads, so the first post-restart advise misses nothing, and no
// set that solver never reads is built: for every solver name, the rounded
// set at the solver's cluster count is warm only where the solver reads it
// (CP, clustered MIP and the portfolio, on longest-link). G1's rows are
// not cached, so they are never warm.
func TestDaemonCacheReseed(t *testing.T) {
	mesh := testGraph(t, 2, 3)
	tree, err := core.AggregationTree(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		clusterK int
		obj      solver.Objective
		rounded  bool
	}{
		{"cp", 4, solver.LongestLink, true},
		{"mip", 4, solver.LongestLink, true},
		{"mip", 0, solver.LongestLink, false},
		{"g1", 0, solver.LongestLink, false},
		{"g2", 0, solver.LongestLink, false},
		{"r1", 0, solver.LongestLink, false},
		{"r2", 0, solver.LongestLink, false},
		{"r2l", 0, solver.LongestLink, false},
		{"sa", 0, solver.LongestLink, false},
		{"portfolio", 4, solver.LongestLink, true},
		{"portfolio", 4, solver.LongestPath, false},
	} {
		t.Run(fmt.Sprintf("%s/k=%d/%s", c.name, c.clusterK, c.obj), func(t *testing.T) {
			g := mesh
			if c.obj == solver.LongestPath {
				g = tree
			}
			const n = 8
			m := testMatrix(rand.New(rand.NewSource(59)), n)
			dir := t.TempDir()
			req := AdviseRequest{
				Tenant: "acme", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: c.obj},
				SolverName: c.name, ClusterK: c.clusterK, RoundBudget: solver.Budget{Nodes: 5_000},
			}

			d := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
			if _, _, err := d.AppendEpoch("acme", n, fullRows(m), nil); err != nil {
				t.Fatal(err)
			}
			cold := adviseOK(t, d, req)
			if c.rounded && cold.CacheMisses == 0 {
				t.Fatal("first-ever advise missed no cache entries")
			}
			d.Close()

			re := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
			defer re.Close()
			if hit := adviseOK(t, re, req); hit.CacheMisses != 0 {
				t.Fatalf("post-restart advise hits/misses = %d/%d, want no misses", hit.CacheHits, hit.CacheMisses)
			}
			// The advise missed nothing, so the set holds what the re-seed
			// built: probe it from fresh Preps, which hit only what someone
			// else built.
			_, k := advisor.StreamSolver(c.name, c.clusterK)
			fp := m.Fingerprint()
			fresh := func() *solver.Prep {
				p, err := solver.NewProblem(g, m.Clone(), c.obj)
				if err != nil {
					t.Fatal(err)
				}
				return p.Prep()
			}
			if hit, err := re.cache.Rounded(fp, k, fresh()); err != nil || hit != c.rounded {
				t.Errorf("Rounded(%d) warm = %v (err %v), want %v", k, hit, err, c.rounded)
			}
			if hit := re.cache.CheapestRows(fp, fresh()); hit {
				t.Error("CheapestRows warm after a re-seed")
			}
		})
	}
}

// TestDaemonCompaction: the log compacts every CompactEvery epochs and the
// compacted tenant recovers to the same state.
func TestDaemonCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 6
	m := testMatrix(rng, n)
	dir := t.TempDir()

	d := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1, CompactEvery: 3})
	var lastFP core.Fingerprint
	for e := 0; e < 7; e++ {
		vals := make([]float64, n)
		copy(vals, m.Row(e%n))
		for j := range vals {
			if j != e%n {
				vals[j] += float64(e+1) * 0.01
			}
		}
		var err error
		_, lastFP, err = d.AppendEpoch("acme", n, []wal.RowDelta{{Row: e % n, Values: vals}}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Tenants[0].WAL.Compactions != 2 {
		t.Fatalf("%d compactions after 7 epochs at CompactEvery=3, want 2", st.Tenants[0].WAL.Compactions)
	}
	d.Close()

	re := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1, CompactEvery: 3})
	defer re.Close()
	rst := re.Stats()
	if rst.Tenants[0].Fingerprint != lastFP || rst.Tenants[0].Epoch != 7 {
		t.Fatalf("compacted tenant recovered to %+v, want epoch 7 fingerprint %016x", rst.Tenants[0], uint64(lastFP))
	}
}

// TestDaemonRecoveryRefusesFingerprintMismatch: a log whose epoch
// fingerprint does not match the replayed matrix must fail recovery, not
// serve from divergent state.
func TestDaemonRecoveryRefusesFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	tenantDir := filepath.Join(dir, "tenants", "61636d65") // hex("acme")
	log, err := wal.Open(tenantDir, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(&wal.EpochRecord{
		Epoch: 1, Fingerprint: 0xdeadbeef, N: 2,
		Rows: []wal.RowDelta{{Row: 0, Values: []float64{0, 1}}},
	}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, err := OpenDaemon(DaemonConfig{Dir: dir, Workers: 1}); err == nil {
		t.Fatal("daemon opened over a fingerprint mismatch")
	}
}

// TestDaemonValidation covers AppendEpoch's input contract and the
// unknown-tenant advise path.
func TestDaemonValidation(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()

	cases := []struct {
		name   string
		tenant string
		n      int
		rows   []wal.RowDelta
	}{
		{"empty tenant", "", 2, nil},
		{"zero size", "t", 0, nil},
		{"row out of range", "t", 2, []wal.RowDelta{{Row: 2, Values: []float64{0, 0}}}},
		{"short values", "t", 2, []wal.RowDelta{{Row: 0, Values: []float64{0}}}},
		{"NaN", "t", 2, []wal.RowDelta{{Row: 0, Values: []float64{0, math.NaN()}}}},
		{"negative", "t", 2, []wal.RowDelta{{Row: 0, Values: []float64{0, -1}}}},
		{"nonzero diagonal", "t", 2, []wal.RowDelta{{Row: 0, Values: []float64{1, 1}}}},
	}
	for _, tc := range cases {
		if _, _, err := d.AppendEpoch(tc.tenant, tc.n, tc.rows, nil); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}

	if _, _, err := d.AppendEpoch("t", 2, []wal.RowDelta{{Row: 0, Values: []float64{0, 1}}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.AppendEpoch("t", 3, nil, nil); err == nil {
		t.Error("matrix resize accepted")
	}

	if _, err := d.Advise(AdviseRequest{Tenant: "ghost", Graph: testGraph(t, 2, 2)}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant advise error = %v", err)
	}
	if _, err := OpenDaemon(DaemonConfig{}); err == nil {
		t.Error("daemon without a directory opened")
	}
}

// TestDaemonCloseDrainsInFlight: once Close begins, every later call is
// refused with ErrClosed and creates nothing on disk, while an advise
// already in flight finishes and logs its advice before the logs close, so
// a reopened daemon warm-starts from it.
func TestDaemonCloseDrainsInFlight(t *testing.T) {
	g := testGraph(t, 2, 3)
	m := testMatrix(rand.New(rand.NewSource(37)), 8)
	dir := t.TempDir()
	d := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	postMatrix(t, d, "acme", m)

	// Park an advise in its round, then begin Close.
	req, gate := gatedAdvise(g, "acme", solver.Budget{Nodes: 1000})
	parked := make(chan struct{})
	req.OnRound = func(advisor.Round) {
		close(parked)
		<-gate
	}
	inFlight := adviseAsync(d, req)
	<-parked
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		c := d.closed
		d.mu.Unlock()
		if c {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never marked the daemon closed")
		}
		time.Sleep(time.Millisecond)
	}

	if _, _, err := d.AppendEpoch("acme", m.Size(), fullRows(m), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("epoch for an existing tenant after Close: %v, want ErrClosed", err)
	}
	if _, _, err := d.AppendEpoch("newcomer", m.Size(), fullRows(m), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("epoch for a new tenant after Close: %v, want ErrClosed", err)
	}
	plain := req
	plain.OnRound = nil
	if _, err := d.Advise(plain); !errors.Is(err, ErrClosed) {
		t.Errorf("advise after Close: %v, want ErrClosed", err)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "tenants")); err != nil || len(entries) != 1 {
		t.Errorf("tenant directories after Close: %d (err %v), want only acme's", len(entries), err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with an advise in flight", err)
	default:
	}

	close(gate)
	res := inFlight.wait(t)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	re := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	defer re.Close()
	adv := session(t, re, "acme", false).lastAdvice
	if adv == nil || !reflect.DeepEqual([]int(adv.Deployment), []int(res.Outcome.Deployment)) {
		t.Fatalf("reopened daemon holds advice %+v, want the drained advise's %v", adv, res.Outcome.Deployment)
	}
	// Warm-started from the drained advice, one node of budget can only
	// keep or improve on it.
	warm := adviseOK(t, re, AdviseRequest{Tenant: "acme", Graph: g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink}, SolverName: "g2", RoundBudget: solver.Budget{Nodes: 1}})
	if warm.Outcome.Cost > res.Outcome.Cost {
		t.Fatalf("reopened advise cost %g, want at most the drained advice's %g", warm.Outcome.Cost, res.Outcome.Cost)
	}
}

// TestDaemonAlienTenantDir: recovery refuses a tenants/ entry it cannot
// decode rather than guessing.
func TestDaemonAlienTenantDir(t *testing.T) {
	dir := t.TempDir()
	d := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	d.Close()
	if err := os.MkdirAll(filepath.Join(dir, "tenants", "not-hex!"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDaemon(DaemonConfig{Dir: dir, Workers: 1}); err == nil {
		t.Fatal("daemon opened over an undecodable tenant directory")
	}
}

// TestDaemonAppendFailureRollsBack: when the WAL append of an epoch fails,
// the tenant's memory must stay at its last committed epoch — matrices,
// fingerprints and epoch counter — or the next epoch's changed rows would be
// diffed against values the log never recorded. A committed snapshot read
// before the failed epoch keeps its values through the revert and the next
// epoch, whose ack is the fingerprint of a fresh fold of what was logged.
func TestDaemonAppendFailureRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n = 6
	m := testMatrix(rng, n)
	dir := t.TempDir()
	d := openDaemon(t, DaemonConfig{Dir: dir})
	epoch, fp, err := d.AppendEpoch("acme", n, fullRows(m), &TailUpdate{Pct: 99, Rows: tailRowsOf(m)})
	if err != nil {
		t.Fatal(err)
	}
	sess := session(t, d, "acme", false)
	tailFP := sess.tail.fp
	if sess.mean.mm.Fingerprint() != fp || sess.tail.mm.Fingerprint() != tailFP {
		t.Fatal("committed fingerprints disagree with the matrices")
	}
	// What an advise admitted now would solve over, and deep copies of it.
	readMean, readTail := sess.mean.snap, sess.tail.snap
	wantMean, wantTail := readMean.Clone(), readTail.Clone()
	unchanged := func(what string) {
		t.Helper()
		if readMean.Fingerprint() != wantMean.Fingerprint() || readTail.Fingerprint() != wantTail.Fingerprint() {
			t.Fatalf("%s: a committed snapshot read before the failed epoch changed", what)
		}
	}

	// Close the tenant's log, then post an epoch changing a mean and a tail row.
	if err := sess.log.Close(); err != nil {
		t.Fatal(err)
	}
	mean := append([]float64(nil), m.Row(2)...)
	mean[0] *= 2
	tail := append([]float64(nil), tailRowsOf(m)[4].Values...)
	tail[1] *= 3
	if _, _, err := d.AppendEpoch("acme", n, []wal.RowDelta{{Row: 2, Values: mean}},
		&TailUpdate{Pct: 99, Rows: []wal.RowDelta{{Row: 4, Values: tail}}}); err == nil {
		t.Fatal("epoch acknowledged over a closed log")
	}
	check := func(what string, s *tenantSession) {
		t.Helper()
		if s.epoch != epoch || s.mean.fp != fp || s.tail.fp != tailFP {
			t.Fatalf("%s: at epoch %d fp %016x tail %016x, want %d %016x %016x",
				what, s.epoch, uint64(s.mean.fp), uint64(s.tail.fp), epoch, uint64(fp), uint64(tailFP))
		}
		if s.mean.mm.Fingerprint() != fp || s.tail.mm.Fingerprint() != tailFP {
			t.Fatalf("%s: matrices ran ahead of the log", what)
		}
		if s.mean.mm.At(2, 0) != m.At(2, 0) || len(s.mean.mm.ChangedRows()) != 0 || len(s.tail.mm.ChangedRows()) != 0 {
			t.Fatalf("%s: failed epoch's rows left behind", what)
		}
	}
	check("after the failed append", sess)
	unchanged("after the revert")

	// Reopen the tenant's log under the live session: the next epoch folds
	// over the reverted matrices and must ack what a fresh fold of the
	// committed epoch plus its own rows gives.
	if sess.log, err = wal.Open(filepath.Join(dir, "tenants", hex.EncodeToString([]byte("acme"))), wal.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	freshMean, freshTail := core.NewMutableCostMatrix(n), core.NewMutableCostMatrix(n)
	for _, fold := range []struct {
		mm   *core.MutableCostMatrix
		rows []wal.RowDelta
	}{
		{freshMean, fullRows(m)}, {freshMean, []wal.RowDelta{{Row: 2, Values: mean}}},
		{freshTail, tailRowsOf(m)}, {freshTail, []wal.RowDelta{{Row: 4, Values: tail}}},
	} {
		for _, delta := range fold.rows {
			for j, v := range delta.Values {
				fold.mm.Set(delta.Row, j, v)
			}
		}
	}
	nextEpoch, nextFP, err := d.AppendEpoch("acme", n, []wal.RowDelta{{Row: 2, Values: mean}},
		&TailUpdate{Pct: 99, Rows: []wal.RowDelta{{Row: 4, Values: tail}}})
	if err != nil {
		t.Fatal(err)
	}
	if nextEpoch != epoch+1 || nextFP != freshMean.Fingerprint() || sess.tail.fp != freshTail.Fingerprint() {
		t.Fatalf("next epoch acked %d fp %016x tail %016x, want %d and a fresh fold's %016x %016x", nextEpoch,
			uint64(nextFP), uint64(sess.tail.fp), epoch+1, uint64(freshMean.Fingerprint()), uint64(freshTail.Fingerprint()))
	}
	unchanged("after the next epoch")

	// A tenant whose very first epoch fails holds no matrix at all.
	fresh := session(t, d, "fresh", true)
	if err := fresh.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.AppendEpoch("fresh", n, fullRows(m), &TailUpdate{Pct: 95, Rows: tailRowsOf(m)}); err == nil {
		t.Fatal("first epoch acknowledged over a closed log")
	}
	if fresh.epoch != 0 || fresh.mean.mm != nil || fresh.tail.mm != nil || fresh.tail.pct != 0 {
		t.Fatal("failed first epoch left state behind")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDaemon(t, DaemonConfig{Dir: dir})
	defer d2.Close()
	re := session(t, d2, "acme", false)
	if re.epoch != nextEpoch || re.mean.fp != nextFP || re.tail.fp != freshTail.Fingerprint() {
		t.Fatalf("after reopen: at epoch %d fp %016x tail %016x, want %d %016x %016x", re.epoch,
			uint64(re.mean.fp), uint64(re.tail.fp), nextEpoch, uint64(nextFP), uint64(freshTail.Fingerprint()))
	}
}

// TestDaemonFailedFsyncFailsClosed: one failed fsync poisons the tenant's
// log. The epoch whose fsync failed and every later one answer 503
// "log_failed", so nothing is acknowledged under a rolled-back epoch number,
// and a restart replays a valid prefix of what the disk holds. The frame
// whose fsync failed had already reached the file, so replay applies it:
// the reopened tenant stands at that epoch, as it would after a crash
// between the write and the ack.
func TestDaemonFailedFsyncFailsClosed(t *testing.T) {
	const n = 4
	m := testMatrix(rand.New(rand.NewSource(89)), n)
	dir := t.TempDir()
	d := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	if _, _, err := d.AppendEpoch("t", n, fullRows(m), nil); err != nil {
		t.Fatal(err)
	}
	scaled := func(row int, by float64) []float64 {
		vals := append([]float64(nil), m.Row(row)...)
		for j := range vals {
			if j != row {
				vals[j] *= by
			}
		}
		return vals
	}
	ts := httptest.NewServer(d.Handler())
	post := func(row int, by float64) *http.Response {
		return postJSON(t, ts.Client(), ts.URL+"/v1/epoch", map[string]any{
			"tenant": "t", "n": n, "rows": []map[string]any{{"row": row, "values": scaled(row, by)}},
		})
	}
	wal.FailNextSync(errors.New("injected EIO"))
	defer wal.FailNextSync(nil)
	failed := post(1, 1.5)
	third := post(2, 2)
	ts.Close()
	closeErr := d.Close()

	re := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1})
	defer re.Close()
	acked := m.Clone()
	for j, v := range scaled(1, 1.5) {
		acked.Set(1, j, v)
	}
	if st := re.Stats().Tenants; len(st) != 1 || st[0].Epoch != 2 || st[0].Fingerprint != acked.Fingerprint() {
		t.Fatalf("recovered %+v, want epoch 2 holding the failed-ack epoch (fingerprint %016x)",
			st, uint64(acked.Fingerprint()))
	}
	for i, resp := range []*http.Response{failed, third} {
		name := []string{"failed epoch", "next epoch"}[i]
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503", name, resp.StatusCode)
		}
		var e errorJSON
		decodeBody(t, resp, &e)
		if e.Error.Code != "log_failed" || e.Error.RetryAfterMS != 0 {
			t.Errorf("%s: error body %+v, want code log_failed without a retry hint", name, e.Error)
		}
	}
	if !errors.Is(closeErr, wal.ErrFailed) {
		t.Fatalf("closing the daemon returned %v, want the log failure", closeErr)
	}
	if epoch, _, err := re.AppendEpoch("t", n, []wal.RowDelta{{Row: 2, Values: scaled(2, 2)}}, nil); err != nil || epoch != 3 {
		t.Fatalf("reopened tenant: epoch %d, err %v; want epoch 3 accepted", epoch, err)
	}
}

// TestDaemonFailedCompactionFailsClosed: a compaction that cannot create
// its snapshot segment poisons the tenant's log under every sync policy.
// The epoch whose compaction failed answers 503 "log_failed" — its record
// is already in the log — and so does every later one, so nothing is
// acknowledged over the closed segment. A restart replays the compacting
// epoch and the tenant accepts epochs again.
func TestDaemonFailedCompactionFailsClosed(t *testing.T) {
	const n = 4
	m := testMatrix(rand.New(rand.NewSource(83)), n)
	for _, tc := range []struct {
		name   string
		policy wal.SyncPolicy
	}{{"SyncAlways", wal.SyncAlways}, {"SyncNone", wal.SyncNone}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := DaemonConfig{Dir: dir, Workers: 1, CompactEvery: 2, WAL: wal.Options{Sync: tc.policy}}
			d := openDaemon(t, cfg)
			if _, _, err := d.AppendEpoch("t", n, fullRows(m), nil); err != nil {
				t.Fatal(err)
			}
			// Take the name of the segment the compaction would create.
			squat := filepath.Join(dir, "tenants", hex.EncodeToString([]byte("t")), "00000002.seg")
			if err := os.WriteFile(squat, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			scaled := func(row int, by float64) []float64 {
				vals := append([]float64(nil), m.Row(row)...)
				for j := range vals {
					if j != row {
						vals[j] *= by
					}
				}
				return vals
			}
			ts := httptest.NewServer(d.Handler())
			post := func(row int, by float64) *http.Response {
				return postJSON(t, ts.Client(), ts.URL+"/v1/epoch", map[string]any{
					"tenant": "t", "n": n, "rows": []map[string]any{{"row": row, "values": scaled(row, by)}},
				})
			}
			compacting := post(1, 1.5)
			next := post(2, 2)
			ts.Close()
			for i, resp := range []*http.Response{compacting, next} {
				name := []string{"compacting epoch", "next epoch"}[i]
				var e errorJSON
				decodeBody(t, resp, &e)
				if resp.StatusCode != http.StatusServiceUnavailable || e.Error.Code != "log_failed" {
					t.Errorf("%s: status %d, error %+v; want 503 log_failed", name, resp.StatusCode, e.Error)
				}
			}
			if err := d.Close(); !errors.Is(err, wal.ErrFailed) {
				t.Fatalf("closing the daemon returned %v, want the log failure", err)
			}

			re := openDaemon(t, cfg)
			defer re.Close()
			acked := m.Clone()
			for j, v := range scaled(1, 1.5) {
				acked.Set(1, j, v)
			}
			if st := re.Stats().Tenants; len(st) != 1 || st[0].Epoch != 2 || st[0].Fingerprint != acked.Fingerprint() {
				t.Fatalf("recovered %+v, want epoch 2 at the compacting epoch's fingerprint %016x",
					st, uint64(acked.Fingerprint()))
			}
			if epoch, _, err := re.AppendEpoch("t", n, []wal.RowDelta{{Row: 2, Values: scaled(2, 2)}}, nil); err != nil || epoch != 3 {
				t.Fatalf("reopened tenant: epoch %d, err %v; want epoch 3 accepted", epoch, err)
			}
		})
	}
}

// TestDaemonOpenSyncsNewDirs: the directories OpenDaemon creates under a
// fresh root are fsynced into their parents. With the sync failing the
// open fails and leaves nothing behind, so a retry syncs again — a second
// armed fault fails it too — and a retry on a healthy disk opens.
func TestDaemonOpenSyncsNewDirs(t *testing.T) {
	eio := errors.New("injected EIO")
	dir := filepath.Join(t.TempDir(), "fresh", "wal")
	cfg := DaemonConfig{Dir: dir, Workers: 1}
	defer wal.FailNextSync(nil)
	for try := 1; try <= 2; try++ {
		wal.FailNextSync(eio)
		if d, err := OpenDaemon(cfg); !errors.Is(err, eio) {
			if d != nil {
				d.Close()
			}
			t.Fatalf("open %d over a failed directory fsync returned %v, want %v", try, err, eio)
		}
		if _, err := os.Stat(filepath.Dir(dir)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("open %d failed but left %s behind (stat: %v)", try, filepath.Dir(dir), err)
		}
	}
	wal.FailNextSync(nil)
	d := openDaemon(t, cfg)
	defer d.Close()
	if _, _, err := d.AppendEpoch("t", 2, []wal.RowDelta{{Row: 0, Values: []float64{0, 1}}, {Row: 1, Values: []float64{1, 0}}}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonHoldsOneCopyPerMatrix: between epochs a tenant holds one copy of
// each of its matrices. The committed snapshot shares the mutable matrix's
// storage, and no log keeps its first epoch's frame as scratch.
func TestDaemonHoldsOneCopyPerMatrix(t *testing.T) {
	const tenants, n = 8, 300
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for k := 0; k < tenants; k++ {
		// The posted rows are the caller's; they are garbage by the time
		// the heap is read again.
		m := testMatrix(rand.New(rand.NewSource(int64(k))), n)
		if _, _, err := d.AppendEpoch(fmt.Sprintf("t%d", k), n, fullRows(m), &TailUpdate{Pct: 99, Rows: tailRowsOf(m)}); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(heap()) - int64(before)
	oneCopy := int64(tenants * 2 * n * n * 8)
	if grown > oneCopy*5/4 {
		t.Fatalf("heap grew %d bytes for %d tenants' first epochs, want at most 1.25 × %d (one copy of each matrix)",
			grown, tenants, oneCopy)
	}
}
