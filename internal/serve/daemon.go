package serve

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// This file implements the durable serve daemon: the long-lived, crash-safe
// owner of per-tenant state and of the scheduler that grants its advises
// their solve slots (serve.go, sched.go). State that must survive restarts
// — each tenant's evolving cost matrix and its last served advice — lives
// in an append-only WAL (internal/wal), written before the mutation is
// acknowledged. On restart, recovery replays every tenant's log, rebuilds
// the MutableCostMatrix, verifies each epoch's fingerprint bit-for-bit
// against the logged one, and re-seeds the content-addressed artifact cache
// from the recovered matrices before any traffic is admitted — so a killed
// and restarted daemon serves advice bit-equal to one that never died.
// Snapshots are copy-on-write (core.MutableCostMatrix), and each distinct
// matrix content is held once: a committed snapshot is the cache's
// canonical one for its content (Cache.Track), shared by every tenant whose
// matrix holds those exact bits, and each tenant's mutable matrix shares
// its snapshot's storage until the next epoch changes a value. Between
// epochs, a measurement group whose tenants post identical epochs holds one
// copy of each of its matrices, not one per tenant. A closed daemon drops
// its sessions and empties its cache, so it pins no matrix.

// ErrUnknownTenant rejects an advise call for a tenant with no epochs.
var ErrUnknownTenant = fmt.Errorf("serve: unknown tenant")

// DaemonConfig sizes a Daemon.
type DaemonConfig struct {
	// Dir is the WAL root; each tenant's log lives in
	// Dir/tenants/<hex(tenant)>. Required.
	Dir string
	// Workers bounds the advises solved at once; <= 0 selects 2. Each
	// solve runs on its Advise caller's goroutine. One tenant's advises run
	// one at a time; distinct tenants' run concurrently, so Workers bounds
	// the number of portfolio solves racing for the machine at once.
	Workers int
	// WAL configures each tenant's log (fsync policy, segment size).
	WAL wal.Options
	// CompactEvery compacts a tenant's log to a snapshot record every this
	// many epochs; <= 0 selects 32.
	CompactEvery int
}

// tenantSession is one tenant's durable state: its mean matrix, the tail
// (percentile) matrix of a tenant serving percentile advice, and the WAL
// that makes both survive a crash. The session lock serializes epoch
// appends, advice logging, and compaction, so WAL order always matches
// state mutation order — the property replay depends on.
type tenantSession struct {
	name string

	mu           sync.Mutex
	log          *wal.Log
	mean, tail   tenantMatrix
	epoch        int
	lastAdvice   *wal.AdviceRecord
	sinceCompact int
}

// tenantMatrix is one of a tenant's matrices, a cache key with its own
// fingerprint chain: the mutable matrix epochs fold into (nil until rows
// are posted), the committed snapshot advises solve over — the cache's
// canonical snapshot for its content, which other tenants may share — and,
// from publish to commit or revert, the pending snapshot a WAL append
// decides on. The snapshots share storage with the mutable matrix until a
// fold changes a value, which moves the mutable matrix to its own copy;
// commit and revert move it onto the committed snapshot's storage.
type tenantMatrix struct {
	pct     float64 // the percentile a tail estimates; 0 for the mean
	mm      *core.MutableCostMatrix
	snap    *core.CostMatrix
	fp      core.Fingerprint
	next    *core.CostMatrix
	changed []int
}

// fold writes rows into the matrix, first creating it at size n.
func (m *tenantMatrix) fold(n int, pct float64, rows []wal.RowDelta) {
	if m.mm == nil {
		m.mm, m.pct = core.NewMutableCostMatrix(n), pct
	}
	for _, delta := range rows {
		for j, v := range delta.Values {
			m.mm.Set(delta.Row, j, v)
		}
	}
}

// verify checks the matrix replay rebuilt against its logged fingerprint.
func (m *tenantMatrix) verify(tenant string, epoch int, logged core.Fingerprint) error {
	if got := m.mm.Fingerprint(); got != logged {
		what := "fingerprint"
		if m.pct != 0 {
			what = fmt.Sprintf("p%g fingerprint", m.pct)
		}
		return fmt.Errorf("serve: tenant %q epoch %d: recovered %s %016x != logged %016x",
			tenant, epoch, what, uint64(got), uint64(logged))
	}
	return nil
}

// publish snapshots the folded matrix as pending, returning its
// fingerprint and its changed rows, which view the snapshot's storage.
func (m *tenantMatrix) publish() (core.Fingerprint, []wal.RowDelta) {
	m.next, m.changed = m.mm.Snapshot()
	rows := make([]wal.RowDelta, len(m.changed))
	for i, row := range m.changed {
		rows[i] = wal.RowDelta{Row: row, Values: m.next.Row(row)}
	}
	return m.mm.Fingerprint(), rows
}

// commit moves the tenant's cache hold to the pending snapshot, if any
// (Cache.Track), and commits the canonical snapshot for its content. When
// another tenant matrix already holds that content, the pending snapshot is
// dropped and the mutable matrix moves onto the canonical storage, so the
// content is held once.
func (m *tenantMatrix) commit(cache *Cache) {
	if m.next == nil {
		return
	}
	fp := m.mm.Fingerprint() // the pending snapshot's: mm is unchanged since publish
	snap := cache.Track(m.fp, m.snap, fp, m.next)
	if snap != m.next {
		if err := m.mm.Adopt(snap); err != nil {
			// Track returns an identical snapshot or next itself.
			panic(fmt.Sprintf("serve: canonical snapshot for %016x: %v", uint64(fp), err))
		}
	}
	m.snap, m.fp, m.next, m.changed = snap, fp, nil, nil
}

// revert rolls the matrix back over a pending snapshot, if any, to the
// committed one. Before the first committed snapshot there is nothing to
// return to, so the matrix itself is dropped.
func (m *tenantMatrix) revert() {
	switch {
	case m.next == nil:
	case m.snap == nil:
		*m = tenantMatrix{}
	default:
		m.mm.Revert(m.snap, m.changed)
		m.next, m.changed = nil, nil
	}
}

// fold folds one epoch's rows, and its tail rows if any, into the session
// once the epoch fits: a tenant's matrices never change size, and it keeps
// one tail percentile. Replay words a refusal as corrupt history, then
// checks the rebuilt matrices against the fingerprints r logged and moves
// the session to r's epoch.
func (s *tenantSession) fold(r *wal.EpochRecord, replay bool) error {
	if mm := s.mean.mm; mm != nil && mm.Size() != r.N {
		if replay {
			return fmt.Errorf("serve: tenant %q: epoch %d resizes the matrix %d -> %d", s.name, r.Epoch, mm.Size(), r.N)
		}
		return fmt.Errorf("serve: tenant %q matrix is %d x %d, epoch says %d", s.name, mm.Size(), mm.Size(), r.N)
	}
	if r.TailPct != 0 && s.tail.mm != nil && s.tail.pct != r.TailPct {
		if replay {
			return fmt.Errorf("serve: tenant %q: epoch %d changes the tail percentile p%g -> p%g",
				s.name, r.Epoch, s.tail.pct, r.TailPct)
		}
		return fmt.Errorf("serve: tenant %q tail matrix is p%g, epoch posts p%g (one tail percentile per tenant)",
			s.name, s.tail.pct, r.TailPct)
	}
	s.mean.fold(r.N, 0, r.Rows)
	if r.TailPct != 0 {
		s.tail.fold(r.N, r.TailPct, r.TailRows)
	}
	if !replay {
		return nil
	}
	if r.TailPct != 0 {
		if err := s.tail.verify(s.name, r.Epoch, r.TailFingerprint); err != nil {
			return err
		}
	}
	if err := s.mean.verify(s.name, r.Epoch, r.Fingerprint); err != nil {
		return err
	}
	s.epoch = r.Epoch
	return nil
}

// searched returns the matrix a search under spec runs over: the tail, at
// the metric's percentile, for percentile metrics, else the mean.
func (s *tenantSession) searched(spec advisor.ObjectiveSpec) (*tenantMatrix, error) {
	if s.mean.snap == nil {
		return nil, fmt.Errorf("serve: tenant %q has no epochs", s.name)
	}
	pct := spec.TailPercentile()
	switch {
	case pct == 0:
		return &s.mean, nil
	case s.tail.snap == nil:
		return nil, fmt.Errorf("serve: tenant %q has no percentile matrix — metric %q needs tail rows posted with its epochs",
			s.name, spec.Metric)
	case s.tail.pct != pct:
		return nil, fmt.Errorf("serve: tenant %q tail matrix is p%g, metric %q wants p%g",
			s.name, s.tail.pct, spec.Metric, pct)
	}
	return &s.tail, nil
}

// OpenDaemon opens (or creates) the WAL root, recovers every tenant found
// there — replaying epochs into rebuilt matrices, verifying fingerprints
// bit-for-bit, restoring each tenant's last advice as its warm-start
// incumbent, and re-seeding the shared artifact cache — and only then
// admits advises. A fingerprint mismatch or mid-log corruption
// fails the open: serving advice from silently divergent state is the one
// thing a durable daemon must never do.
func OpenDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: daemon requires a WAL directory")
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 32
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	root := filepath.Join(cfg.Dir, "tenants")
	if err := wal.MkdirAll(root); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	d := &Daemon{cfg: cfg, cache: NewCache(0), sched: newSched(cfg.Workers*queueDepth, cfg.Workers), tenants: map[string]*tenantSession{}}

	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Replay tenant logs one at a time, in directory (sorted, os.ReadDir's
	// contract) order, so the error reported is the first failing tenant's
	// in that order and cache re-seeding is one deterministic pass.
	fail := func(err error) (*Daemon, error) {
		for _, sess := range d.sessions() {
			sess.log.Close()
		}
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		raw, err := hex.DecodeString(e.Name())
		if err != nil {
			return fail(fmt.Errorf("serve: alien tenant directory %q", e.Name()))
		}
		sess, err := d.openSession(filepath.Join(root, e.Name()), string(raw))
		if err != nil {
			return fail(err)
		}
		d.tenants[sess.name] = sess
		if err := d.reseedCache(sess); err != nil {
			return fail(err)
		}
	}

	return d, nil
}

// openSession opens one tenant's log, replays it into a fresh session —
// comparing every epoch's re-derived fingerprints bit-for-bit with the
// logged ones — and commits the rebuilt matrices to the cache.
func (d *Daemon) openSession(dir, tenant string) (*tenantSession, error) {
	sess := &tenantSession{name: tenant}
	log, err := wal.Open(dir, d.cfg.WAL, func(rec wal.Record) error {
		switch r := rec.(type) {
		case *wal.EpochRecord:
			return sess.fold(r, true)
		case *wal.AdviceRecord:
			sess.lastAdvice = r
			return nil
		case *wal.SnapshotRecord:
			// A snapshot resets state: whatever preceded it is history the
			// compaction folded into it, so it replays as one full epoch
			// over empty matrices.
			sess.mean, sess.tail, sess.lastAdvice = tenantMatrix{}, tenantMatrix{}, r.Advice
			return sess.fold(&wal.EpochRecord{Epoch: r.Epoch, Fingerprint: r.Fingerprint, N: r.Matrix.Size(),
				Rows: rowDeltas(r.Matrix), TailPct: r.TailPct, TailFingerprint: r.TailFingerprint, TailRows: rowDeltas(r.Tail)}, true)
		}
		return fmt.Errorf("serve: tenant %q: unexpected record %T", tenant, rec)
	})
	if err != nil {
		return nil, err
	}
	sess.log = log
	for _, m := range []*tenantMatrix{&sess.mean, &sess.tail} {
		if m.mm != nil {
			m.publish()
			m.commit(d.cache)
		}
	}
	return sess, nil
}

// rowDeltas views every row of m, if any, as a row delta.
func rowDeltas(m *core.CostMatrix) []wal.RowDelta {
	if m == nil {
		return nil
	}
	rows := make([]wal.RowDelta, m.Size())
	for i := range rows {
		rows[i] = wal.RowDelta{Row: i, Values: m.Row(i)}
	}
	return rows
}

// reseedCache warms the shared cache with the recovered tenant's rounded
// set under its current fingerprint, keyed by the solver configuration of
// its last advice — the configuration its next advise is overwhelmingly
// likely to repeat. advisor.WarmMatrixPrep decides the cluster count that
// solver rounds at, if any.
func (d *Daemon) reseedCache(sess *tenantSession) error {
	adv := sess.lastAdvice
	if adv == nil {
		return nil
	}
	// The matrix the next same-configuration advise searches is the one the
	// last advice searched: percentile advice runs over the tail matrix, so
	// its sets live under the tail fingerprint, not the mean's. State
	// that cannot serve the last advice's metric has nothing to warm.
	m, err := sess.searched(advisor.ObjectiveSpec{Metric: advisor.Metric(adv.Metric)})
	if err != nil {
		return nil
	}
	set := d.cache.matrix(m.fp, func() *solver.MatrixPrep { return solver.NewMatrixPrep(m.snap) })
	if err := advisor.WarmMatrixPrep(set, adv.SolverName, adv.ClusterK, solver.Objective(adv.Objective)); err != nil {
		return fmt.Errorf("serve: tenant %q: re-seeding cache: %w", sess.name, err)
	}
	return nil
}

// enter admits one Advise or AppendEpoch call and returns the tenant's
// session, creating its directory and log on first use when create is set.
// Once Close has begun it refuses with ErrClosed; otherwise the call counts
// as in flight until the caller runs d.calls.Done.
func (d *Daemon) enter(tenant string, create bool) (*tenantSession, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	s, ok := d.tenants[tenant]
	if !ok {
		if !create {
			return nil, fmt.Errorf("%w %q", ErrUnknownTenant, tenant)
		}
		dir := filepath.Join(d.cfg.Dir, "tenants", hex.EncodeToString([]byte(tenant)))
		var err error
		if s, err = d.openSession(dir, tenant); err != nil {
			return nil, err
		}
		d.tenants[tenant] = s
	}
	d.calls.Add(1)
	return s, nil
}

// TailUpdate carries one epoch's percentile-matrix rows, posted alongside
// the mean rows by producers that maintain quantile sketches (the CLI's
// streaming fleet, or any client mirroring measure.Epoch.Tails). A tenant
// keeps exactly one tail matrix; every posted update must carry the same
// percentile.
type TailUpdate struct {
	// Pct is the percentile the rows estimate (e.g. 95 or 99); required
	// and constant per tenant.
	Pct float64
	// Rows are the changed tail rows, full post-change contents, same
	// contract as the mean rows.
	Rows []wal.RowDelta
}

// validateRows checks one row-delta set against the epoch's matrix size.
// A cost of -0 passes, off the diagonal and on it: it is a zero, and it is
// kept as written, since the fold compares and the fingerprint hashes bit
// patterns (core.MutableCostMatrix.Set), as the client's own
// CostMatrix.Fingerprint does.
func validateRows(what string, n int, rows []wal.RowDelta) error {
	for _, delta := range rows {
		if delta.Row < 0 || delta.Row >= n {
			return fmt.Errorf("serve: %s row %d out of range [0,%d)", what, delta.Row, n)
		}
		if len(delta.Values) != n {
			return fmt.Errorf("serve: %s row %d carries %d values, want %d", what, delta.Row, len(delta.Values), n)
		}
		for j, v := range delta.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("serve: %s row %d col %d: invalid cost %g", what, delta.Row, j, v)
			}
			if j == delta.Row && v != 0 {
				return fmt.Errorf("serve: %s row %d: nonzero diagonal %g", what, delta.Row, v)
			}
		}
	}
	return nil
}

// maxEpochN caps the matrix size an epoch may claim, which sizes the n×n
// matrices AppendEpoch allocates (128 MiB each at the cap).
const maxEpochN = 4096

// AppendEpoch applies one epoch of cost updates to the tenant's matrix:
// validate, fold into the mutable matrix, log the actually-changed rows
// (with the new fingerprint) to the WAL, and only then publish the new
// snapshot and move the tenant's cache hold to it (Cache.Track). When
// AppendEpoch returns, the epoch is as durable as the fsync policy
// promises. Rows beyond the changed set cost nothing: a Set that does not
// change a bit leaves the row clean and unlogged. If the WAL append fails,
// the folded rows, the epoch counter and the fingerprints roll back to the
// last committed snapshot, so memory never holds what the log does not.
//
// tail, when non-nil, posts the epoch's percentile-matrix rows in the same
// durability unit: both matrices mutate under one WAL record, so replay can
// never observe a mean without its tail. Percentile advise calls
// (Metric p95/p99) require the tenant to have posted a tail of the matching
// percentile.
func (d *Daemon) AppendEpoch(tenant string, n int, rows []wal.RowDelta, tail *TailUpdate) (int, core.Fingerprint, error) {
	if tenant == "" {
		return 0, 0, fmt.Errorf("serve: epoch without a tenant")
	}
	if n <= 0 {
		return 0, 0, fmt.Errorf("serve: epoch with matrix size %d", n)
	}
	if n > maxEpochN {
		return 0, 0, fmt.Errorf("serve: epoch with matrix size %d over the daemon's limit %d", n, maxEpochN)
	}
	if err := validateRows("epoch", n, rows); err != nil {
		return 0, 0, err
	}
	if tail != nil {
		if tail.Pct <= 0 || tail.Pct >= 100 {
			return 0, 0, fmt.Errorf("serve: epoch tail percentile %g outside (0,100)", tail.Pct)
		}
		if err := validateRows("epoch tail", n, tail.Rows); err != nil {
			return 0, 0, err
		}
	}
	sess, err := d.enter(tenant, true)
	if err != nil {
		return 0, 0, err
	}
	defer d.calls.Done()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	rec := &wal.EpochRecord{Epoch: sess.epoch + 1, N: n, Rows: rows}
	if tail != nil {
		rec.TailPct, rec.TailRows = tail.Pct, tail.Rows
	}
	if err := sess.fold(rec, false); err != nil {
		return 0, 0, err
	}
	// The log records only the rows the epoch actually changed.
	rec.Fingerprint, rec.Rows = sess.mean.publish()
	if tail != nil {
		rec.TailFingerprint, rec.TailRows = sess.tail.publish()
	}
	if err := sess.log.Append(rec); err != nil {
		// The epoch is not acknowledged, so memory must not hold it; a
		// record that reached the disk anyway replays after a restart.
		sess.mean.revert()
		sess.tail.revert()
		return 0, 0, err
	}
	sess.epoch = rec.Epoch
	sess.mean.commit(d.cache)
	sess.tail.commit(d.cache)

	sess.sinceCompact++
	if sess.sinceCompact >= d.cfg.CompactEvery {
		snap := &wal.SnapshotRecord{Epoch: sess.epoch, Fingerprint: sess.mean.fp, Matrix: sess.mean.snap, Advice: sess.lastAdvice,
			Tail: sess.tail.snap, TailPct: sess.tail.pct, TailFingerprint: sess.tail.fp}
		if err := sess.log.Compact(snap); err != nil {
			return 0, 0, err
		}
		sess.sinceCompact = 0
	}
	return sess.epoch, sess.mean.fp, nil
}

// AdviseRequest is one advise call against a tenant's current matrix.
type AdviseRequest struct {
	// Tenant selects whose matrix to solve over; it must have at least one
	// epoch. It is the scheduling key: one tenant's advises run one at a
	// time in admission order, with fairness accounted per tenant.
	// Required.
	Tenant string
	// Graph defines the deployment problem's communication graph; required.
	Graph *core.Graph
	// ObjectiveSpec says what to optimize. Percentile metrics (p95, p99)
	// search the tenant's tail matrix — which its epochs must have posted
	// (TailUpdate) at the matching percentile — tie-breaking equal tail
	// costs on the mean matrix. The spec's Scheme is ignored: the daemon
	// serves posted matrices, it does not measure.
	advisor.ObjectiveSpec
	// SolverName, ClusterK, RoundBudget, and Seed have their
	// advisor.StreamSolveConfig meanings. RoundBudget is required — beyond
	// bounding the solve, it is the advise's fairness charge: each dispatch
	// advances the tenant's virtual time by the declared budget, so tenants
	// promising more work cede priority sooner.
	SolverName  string
	ClusterK    int
	RoundBudget solver.Budget
	Seed        int64
	// Timeout, when positive, bounds the solve's wall clock from the moment
	// its slot is granted; zero leaves it bounded only by RoundBudget. On
	// expiry the advise completes normally with its best-so-far incumbent
	// and Outcome.Interrupted set — a deadline is degraded advice, not an
	// error.
	Timeout time.Duration
	// NoWarmStart suppresses seeding the solve from the tenant's last
	// logged advice.
	NoWarmStart bool
	// OnRound, when non-nil, streams each round as it completes, on the
	// goroutine that called Advise (the HTTP front end flushes one JSON
	// line per round).
	OnRound func(advisor.Round)
}

// validate checks what the request itself says: the one validation an
// advise gets before it is admitted.
func (req *AdviseRequest) validate() error {
	if req.Graph == nil {
		return fmt.Errorf("serve: job without a communication graph")
	}
	if err := req.ObjectiveSpec.Validate(); err != nil {
		return err
	}
	if req.Metric == advisor.MetricMeanPlusStd {
		return fmt.Errorf("serve: jobs do not support the %q metric (epochs carry mean and percentile matrices)", advisor.MetricMeanPlusStd)
	}
	// The solver clock ignores a negative axis, so it bounds nothing.
	if b := req.RoundBudget; b.Unlimited() || b.Time < 0 || b.Nodes < 0 {
		return fmt.Errorf("serve: job requires a bounded round budget")
	}
	return nil
}

// Advise solves the request over the tenant's current matrix snapshot and,
// on success, logs the served advice to the tenant's WAL — making it the
// warm-start incumbent for the tenant's next advise, in this process
// lifetime or any later one. The solve runs on the calling goroutine once
// the scheduler grants it a slot. Admission never blocks: a full admission
// queue refuses with ErrBusy, for the caller's retry policy.
func (d *Daemon) Advise(req AdviseRequest) (*Result, error) {
	sess, err := d.enter(req.Tenant, false)
	if err != nil {
		return nil, err
	}
	defer d.calls.Done()
	if err := req.validate(); err != nil {
		return nil, err
	}
	t := &task{req: req, granted: make(chan struct{})}
	sess.mu.Lock()
	m, err := sess.searched(req.ObjectiveSpec)
	if err != nil {
		sess.mu.Unlock()
		return nil, err
	}
	t.mean, t.fp = sess.mean.snap, m.fp
	epoch, fp := sess.epoch, sess.mean.fp
	if m.pct != 0 {
		t.tail = m.snap
	}
	if !req.NoWarmStart && sess.lastAdvice != nil {
		dep := core.Deployment(sess.lastAdvice.Deployment)
		// Adopt the incumbent only when it fits this request's problem
		// shape; a tenant re-advising a different graph starts cold.
		if len(dep) == req.Graph.NumNodes() && dep.Validate(t.mean.Size()) == nil {
			t.warm = dep.Clone()
		}
	}
	sess.mu.Unlock()

	// Build the graph's adjacency view up front (concurrent-safe; racing
	// advises serialize behind one build) so no solve pays it while holding
	// a slot, on a graph shared by several advises.
	req.Graph.EnsureIncidence()
	if err := d.sched.submit(t); err != nil {
		d.rejected.Add(1)
		return nil, err
	}
	d.submitted.Add(1)
	<-t.granted
	res := d.run(t)
	if res.Err == nil && res.Outcome != nil && res.Outcome.Deployment != nil {
		rec := &wal.AdviceRecord{
			Epoch:       epoch,
			Fingerprint: fp,
			SolverName:  req.SolverName,
			ClusterK:    req.ClusterK,
			Objective:   string(req.Objective),
			Metric:      string(req.WithDefaults().Metric),
			Winner:      res.Outcome.Winner(),
			Cost:        res.Outcome.Cost,
			Deployment:  res.Outcome.Deployment,
		}
		// The advice is logged after run has freed the slot, so an fsync
		// never holds one. The session lock holds advice logging and
		// incumbent adoption together, so WAL order matches incumbent order
		// and replay restores exactly the incumbent a living daemon would
		// hold.
		sess.mu.Lock()
		err := sess.log.Append(rec)
		if err == nil {
			sess.lastAdvice = rec
		}
		sess.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// TenantStatus is one tenant's durable-state snapshot.
type TenantStatus struct {
	Tenant      string
	Epoch       int
	Fingerprint core.Fingerprint
	Advised     bool
	WAL         wal.Stats
}

// DaemonStats combines the advise counters with every tenant's durable
// state.
type DaemonStats struct {
	Server  Stats
	Tenants []TenantStatus
}

// sessions returns every tenant's session, sorted by tenant name.
func (d *Daemon) sessions() []*tenantSession {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*tenantSession, 0, len(d.tenants))
	//cloudia:nondet-ok collection order is irrelevant: the result is sorted by tenant name below
	for _, s := range d.tenants {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Stats snapshots the daemon.
func (d *Daemon) Stats() DaemonStats {
	st := DaemonStats{Server: Stats{
		Submitted: d.submitted.Load(),
		Rejected:  d.rejected.Load(),
		Served:    d.served.Load(),
		Failed:    d.failed.Load(),
		Cache:     d.cache.Stats(),
	}}
	for _, s := range d.sessions() {
		s.mu.Lock()
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant:      s.name,
			Epoch:       s.epoch,
			Fingerprint: s.mean.fp,
			Advised:     s.lastAdvice != nil,
			WAL:         s.log.Stats(),
		})
		s.mu.Unlock()
	}
	return st
}

// Close refuses new Advise and AppendEpoch calls with ErrClosed, waits for
// those in flight — their solves finish and their advice is logged — then
// flushes and closes every tenant's WAL. This is the SIGTERM path: drain
// first, sync last, so nothing acknowledged is lost. Then it drops every
// session and empties the cache, so a closed Daemon that is still
// referenced pins no matrix; Stats still works and reports no tenants.
// Safe to call once.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.calls.Wait()
	var firstErr error
	for _, s := range d.sessions() {
		s.mu.Lock()
		if err := s.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.mu.Unlock()
	}
	d.mu.Lock()
	d.tenants = nil
	d.mu.Unlock()
	d.cache.clear()
	return firstErr
}
