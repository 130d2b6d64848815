package serve

import (
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
	control := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Serve: Config{Shards: 1}})
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
	crashed := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}})
	crashFP, _ := drive(crashed)
	if crashFP != ctrlFP {
		t.Fatalf("workload fingerprints diverge before the restart: %016x != %016x", uint64(crashFP), uint64(ctrlFP))
	}
	crashed.Close()

	reopened := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}})
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
// recovered fingerprint, so the first post-restart advise hits instead of
// recomputing the artifacts the dead process had already paid for.
func TestDaemonCacheReseed(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := testGraph(t, 2, 3)
	const n = 8
	m := testMatrix(rng, n)
	dir := t.TempDir()

	d := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}})
	if _, _, err := d.AppendEpoch("acme", n, fullRows(m), nil); err != nil {
		t.Fatal(err)
	}
	cold := adviseOK(t, d, AdviseRequest{
		Tenant: "acme", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "cp", ClusterK: 4, RoundBudget: solver.Budget{Nodes: 5_000},
	})
	if cold.CacheMisses == 0 {
		t.Fatal("first-ever advise missed no cache entries")
	}
	d.Close()

	re := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}})
	defer re.Close()
	hit := adviseOK(t, re, AdviseRequest{
		Tenant: "acme", Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		SolverName: "cp", ClusterK: 4, RoundBudget: solver.Budget{Nodes: 5_000},
	})
	if hit.CacheMisses != 0 || hit.CacheHits == 0 {
		t.Fatalf("post-restart advise hits/misses = %d/%d, want all hits", hit.CacheHits, hit.CacheMisses)
	}
}

// TestDaemonCompaction: the log compacts every CompactEvery epochs and the
// compacted tenant recovers to the same state.
func TestDaemonCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 6
	m := testMatrix(rng, n)
	dir := t.TempDir()

	d := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}, CompactEvery: 3})
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

	re := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}, CompactEvery: 3})
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
	if _, err := OpenDaemon(DaemonConfig{Dir: dir, Serve: Config{Shards: 1}}); err == nil {
		t.Fatal("daemon opened over a fingerprint mismatch")
	}
}

// TestDaemonValidation covers AppendEpoch's input contract and the
// unknown-tenant advise path.
func TestDaemonValidation(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Serve: Config{Shards: 1}})
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

// TestDaemonAlienTenantDir: recovery refuses a tenants/ entry it cannot
// decode rather than guessing.
func TestDaemonAlienTenantDir(t *testing.T) {
	dir := t.TempDir()
	d := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}})
	d.Close()
	if err := os.MkdirAll(filepath.Join(dir, "tenants", "not-hex!"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDaemon(DaemonConfig{Dir: dir, Serve: Config{Shards: 1}}); err == nil {
		t.Fatal("daemon opened over an undecodable tenant directory")
	}
}

// TestDaemonAppendFailureRollsBack: when the WAL append of an epoch fails,
// the tenant's memory must stay at its last committed epoch — matrices,
// fingerprints and epoch counter — or the next epoch's changed rows would be
// diffed against values the log never recorded.
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
	sess, err := d.session("acme", false)
	if err != nil {
		t.Fatal(err)
	}
	tailFP := sess.tailFP
	if sess.mm.Fingerprint() != fp || sess.tailMM.Fingerprint() != tailFP {
		t.Fatal("committed fingerprints disagree with the matrices")
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
		if s.epoch != epoch || s.fp != fp || s.tailFP != tailFP {
			t.Fatalf("%s: at epoch %d fp %016x tail %016x, want %d %016x %016x",
				what, s.epoch, uint64(s.fp), uint64(s.tailFP), epoch, uint64(fp), uint64(tailFP))
		}
		if s.mm.Fingerprint() != fp || s.tailMM.Fingerprint() != tailFP {
			t.Fatalf("%s: matrices ran ahead of the log", what)
		}
		if s.mm.At(2, 0) != m.At(2, 0) || len(s.mm.ChangedRows()) != 0 || len(s.tailMM.ChangedRows()) != 0 {
			t.Fatalf("%s: failed epoch's rows left behind", what)
		}
	}
	check("after the failed append", sess)

	// A tenant whose very first epoch fails holds no matrix at all.
	fresh, err := d.session("fresh", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.AppendEpoch("fresh", n, fullRows(m), &TailUpdate{Pct: 95, Rows: tailRowsOf(m)}); err == nil {
		t.Fatal("first epoch acknowledged over a closed log")
	}
	if fresh.epoch != 0 || fresh.mm != nil || fresh.tailMM != nil || fresh.tailPct != 0 {
		t.Fatal("failed first epoch left state behind")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDaemon(t, DaemonConfig{Dir: dir})
	defer d2.Close()
	re, err := d2.session("acme", false)
	if err != nil {
		t.Fatal(err)
	}
	check("after reopen", re)
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
	d := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}})
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

	re := openDaemon(t, DaemonConfig{Dir: dir, Serve: Config{Shards: 1}})
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
