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
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// This file implements the durable serve daemon: the long-lived, crash-safe
// face of the sharded Server. Where the Server is a scheduling fabric with
// no memory — every Job carries its own matrix and dies with the process —
// the Daemon owns per-tenant state that must survive restarts: each
// tenant's evolving cost matrix and its last served advice live in an
// append-only WAL (internal/wal), written before the mutation is
// acknowledged. On restart, recovery replays every tenant's log, rebuilds
// the MutableCostMatrix, verifies each epoch's fingerprint bit-for-bit
// against the logged one, and re-seeds the content-addressed artifact cache
// from the recovered matrices before any traffic is admitted — so a killed
// and restarted daemon serves advice bit-equal to one that never died.

// ErrUnknownTenant rejects an advise call for a tenant with no epochs.
var ErrUnknownTenant = fmt.Errorf("serve: unknown tenant")

// DaemonConfig sizes a Daemon.
type DaemonConfig struct {
	// Dir is the WAL root; each tenant's log lives in
	// Dir/tenants/<hex(tenant)>. Required.
	Dir string
	// Serve configures the underlying Server.
	Serve Config
	// WAL configures each tenant's log (fsync policy, segment size).
	WAL wal.Options
	// CompactEvery compacts a tenant's log to a snapshot record every this
	// many epochs; <= 0 selects 32.
	CompactEvery int
	// DefaultTimeout bounds jobs whose request carries no deadline; zero
	// leaves them unbounded.
	DefaultTimeout time.Duration
}

// Daemon is a Server plus durable per-tenant state.
type Daemon struct {
	cfg   DaemonConfig
	srv   *Server
	cache *Cache

	mu      sync.Mutex
	tenants map[string]*tenantSession
}

// tenantSession is one tenant's durable state: the mutable matrix its
// epochs fold into, the immutable snapshot jobs solve over, and the WAL
// that makes both survive a crash. Tenants serving percentile advice
// additionally carry one tail matrix — the percentile estimate their
// epochs post tail rows into — with its own snapshot and fingerprint
// chain, since percentile and mean matrices are distinct cache keys. The
// session lock serializes epoch appends, advice logging, and compaction,
// so WAL order always matches state mutation order — the property replay
// depends on.
type tenantSession struct {
	name string

	mu           sync.Mutex
	log          *wal.Log
	mm           *core.MutableCostMatrix
	snap         *core.CostMatrix
	fp           core.Fingerprint
	tailPct      float64
	tailMM       *core.MutableCostMatrix
	tailSnap     *core.CostMatrix
	tailFP       core.Fingerprint
	epoch        int
	lastAdvice   *wal.AdviceRecord
	sinceCompact int
}

// OpenDaemon opens (or creates) the WAL root, recovers every tenant found
// there — replaying epochs into rebuilt matrices, verifying fingerprints
// bit-for-bit, restoring each tenant's last advice as its warm-start
// incumbent, and re-seeding the shared artifact cache — and only then
// starts the serving fabric. A fingerprint mismatch or mid-log corruption
// fails the open: serving advice from silently divergent state is the one
// thing a durable daemon must never do.
func OpenDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: daemon requires a WAL directory")
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 32
	}
	if cfg.Serve.Cache == nil {
		cfg.Serve.Cache = NewCache(0)
	}
	root := filepath.Join(cfg.Dir, "tenants")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	d := &Daemon{cfg: cfg, cache: cfg.Serve.Cache, tenants: map[string]*tenantSession{}}

	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Replay tenant logs one at a time, in directory (sorted, os.ReadDir's
	// contract) order, so the error reported is the first failing tenant's
	// in that order and cache re-seeding is one deterministic pass.
	var opened []*tenantSession
	fail := func(err error) (*Daemon, error) {
		for _, sess := range opened {
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
		sess, err := openSession(filepath.Join(root, e.Name()), string(raw), cfg.WAL)
		if err != nil {
			return fail(err)
		}
		opened = append(opened, sess)
		if err := d.reseedCache(sess); err != nil {
			return fail(err)
		}
		d.cache.Track(0, sess.fp)
		d.cache.Track(0, sess.tailFP)
		d.tenants[sess.name] = sess
	}

	d.srv = New(cfg.Serve)
	return d, nil
}

// openSession opens one tenant's log and replays it into a fresh session.
// Every epoch's fingerprint is re-derived from the rebuilt matrix and
// compared bit-for-bit with the logged one.
func openSession(dir, tenant string, opts wal.Options) (*tenantSession, error) {
	sess := &tenantSession{name: tenant}
	var mm, tailMM *core.MutableCostMatrix
	apply := func(epoch int, fp core.Fingerprint) error {
		if got := mm.Fingerprint(); got != fp {
			return fmt.Errorf("serve: tenant %q epoch %d: recovered fingerprint %016x != logged %016x",
				tenant, epoch, uint64(got), uint64(fp))
		}
		sess.epoch, sess.fp = epoch, fp
		return nil
	}
	applyTail := func(epoch int, pct float64, fp core.Fingerprint) error {
		if got := tailMM.Fingerprint(); got != fp {
			return fmt.Errorf("serve: tenant %q epoch %d: recovered p%g fingerprint %016x != logged %016x",
				tenant, epoch, pct, uint64(got), uint64(fp))
		}
		sess.tailPct, sess.tailFP = pct, fp
		return nil
	}
	fold := func(dst *core.MutableCostMatrix, rows []wal.RowDelta) {
		for _, delta := range rows {
			for j, v := range delta.Values {
				dst.Set(delta.Row, j, v)
			}
		}
	}
	log, err := wal.Open(dir, opts, func(rec wal.Record) error {
		switch r := rec.(type) {
		case *wal.EpochRecord:
			if mm == nil {
				mm = core.NewMutableCostMatrix(r.N)
			} else if mm.Size() != r.N {
				return fmt.Errorf("serve: tenant %q: epoch %d resizes the matrix %d -> %d",
					tenant, r.Epoch, mm.Size(), r.N)
			}
			fold(mm, r.Rows)
			if r.TailPct != 0 {
				if tailMM == nil {
					tailMM = core.NewMutableCostMatrix(r.N)
				} else if sess.tailPct != r.TailPct {
					return fmt.Errorf("serve: tenant %q: epoch %d changes the tail percentile p%g -> p%g",
						tenant, r.Epoch, sess.tailPct, r.TailPct)
				}
				fold(tailMM, r.TailRows)
				if err := applyTail(r.Epoch, r.TailPct, r.TailFingerprint); err != nil {
					return err
				}
			}
			return apply(r.Epoch, r.Fingerprint)
		case *wal.AdviceRecord:
			sess.lastAdvice = r
			return nil
		case *wal.SnapshotRecord:
			// A snapshot resets state: whatever preceded it is history the
			// compaction already folded in.
			n := r.Matrix.Size()
			mm = core.NewMutableCostMatrix(n)
			for i := 0; i < n; i++ {
				for j, v := range r.Matrix.Row(i) {
					mm.Set(i, j, v)
				}
			}
			tailMM, sess.tailPct, sess.tailFP = nil, 0, 0
			if r.Tail != nil {
				tailMM = core.NewMutableCostMatrix(n)
				for i := 0; i < n; i++ {
					for j, v := range r.Tail.Row(i) {
						tailMM.Set(i, j, v)
					}
				}
				if err := applyTail(r.Epoch, r.TailPct, r.TailFingerprint); err != nil {
					return err
				}
			}
			sess.lastAdvice = r.Advice
			return apply(r.Epoch, r.Fingerprint)
		}
		return fmt.Errorf("serve: tenant %q: unexpected record %T", tenant, rec)
	})
	if err != nil {
		return nil, err
	}
	sess.log = log
	if mm != nil {
		snap, _ := mm.Snapshot()
		sess.mm, sess.snap = mm, snap
	}
	if tailMM != nil {
		snap, _ := tailMM.Snapshot()
		sess.tailMM, sess.tailSnap = tailMM, snap
	}
	return sess, nil
}

// reseedCache warms the shared cache with the recovered tenant's matrix
// artifacts under its current fingerprint, keyed by the solver
// configuration of its last advice — the configuration its next advise is
// overwhelmingly likely to repeat. It is the one place that maps a solver to
// the matrix artifacts it reads; graph artifacts are not persisted and
// re-warm on first use.
func (d *Daemon) reseedCache(sess *tenantSession) error {
	adv := sess.lastAdvice
	if adv == nil || sess.snap == nil {
		return nil
	}
	// The matrix the next same-configuration advise searches is the one the
	// last advice recorded: percentile advice runs over the tail matrix, so
	// its artifacts live under the tail fingerprint, not the mean's.
	fp, snap := sess.fp, sess.snap
	spec := advisor.ObjectiveSpec{Metric: advisor.Metric(adv.Metric)}
	if spec.TailPercentile() > 0 {
		if sess.tailSnap == nil {
			return nil
		}
		fp, snap = sess.tailFP, sess.tailSnap
	}
	set := d.cache.matrix(fp, func() *solver.MatrixPrep { return solver.NewMatrixPrep(snap) })
	name, k := advisor.StreamSolver(adv.SolverName, adv.ClusterK)
	// CP reads the pair list at every k; unclustered MIP reads the raw
	// matrix and never asks for the k <= 0 entry.
	if name == "cp" || name == "portfolio" || (name == "mip" && k > 0) {
		if _, _, err := set.Rounded(k); err != nil {
			return fmt.Errorf("serve: tenant %q: re-seeding cache: %w", sess.name, err)
		}
	}
	if name == "g1" || name == "portfolio" {
		set.CheapestRows()
	}
	return nil
}

// session returns the tenant's session, creating its directory and log on
// first use when create is set.
func (d *Daemon) session(tenant string, create bool) (*tenantSession, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.tenants[tenant]; ok {
		return s, nil
	}
	if !create {
		return nil, fmt.Errorf("%w %q", ErrUnknownTenant, tenant)
	}
	dir := filepath.Join(d.cfg.Dir, "tenants", hex.EncodeToString([]byte(tenant)))
	s, err := openSession(dir, tenant, d.cfg.WAL)
	if err != nil {
		return nil, err
	}
	d.tenants[tenant] = s
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

// logRows converts a published changed-row set into WAL row deltas.
func logRows(m *core.CostMatrix, changed []int, n int) []wal.RowDelta {
	rows := make([]wal.RowDelta, 0, len(changed))
	for _, row := range changed {
		vals := make([]float64, n)
		copy(vals, m.Row(row))
		rows = append(rows, wal.RowDelta{Row: row, Values: vals})
	}
	return rows
}

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
func (d *Daemon) AppendEpoch(tenant string, n int, rows []wal.RowDelta, tail *TailUpdate) (epoch int, fp core.Fingerprint, err error) {
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
	sess, err := d.session(tenant, true)
	if err != nil {
		return 0, 0, err
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.mm == nil {
		sess.mm = core.NewMutableCostMatrix(n)
	} else if sess.mm.Size() != n {
		return 0, 0, fmt.Errorf("serve: tenant %q matrix is %d x %d, epoch says %d", tenant, sess.mm.Size(), sess.mm.Size(), n)
	}
	if tail != nil && sess.tailMM != nil && sess.tailPct != tail.Pct {
		return 0, 0, fmt.Errorf("serve: tenant %q tail matrix is p%g, epoch posts p%g (one tail percentile per tenant)",
			tenant, sess.tailPct, tail.Pct)
	}
	for _, delta := range rows {
		for j, v := range delta.Values {
			sess.mm.Set(delta.Row, j, v)
		}
	}
	ep := measure.PublishEpoch(sess.mm, 0, true, 0)
	sess.epoch++

	rec := &wal.EpochRecord{Epoch: sess.epoch, Fingerprint: ep.Fingerprint, N: n,
		Rows: logRows(ep.Matrix, ep.ChangedRows, n)}

	var tm measure.TailMatrix
	if tail != nil {
		if sess.tailMM == nil {
			sess.tailMM, sess.tailPct = core.NewMutableCostMatrix(n), tail.Pct
		}
		for _, delta := range tail.Rows {
			for j, v := range delta.Values {
				sess.tailMM.Set(delta.Row, j, v)
			}
		}
		tm = measure.PublishTail(sess.tailMM, tail.Pct)
		rec.TailPct, rec.TailFingerprint = tm.Pct, tm.Fingerprint
		rec.TailRows = logRows(tm.Matrix, tm.ChangedRows, n)
	}

	if err := sess.log.Append(rec); err != nil {
		// Nothing reached the log, so memory must not run ahead of it: put
		// back the committed state the failed epoch changed.
		sess.epoch--
		sess.mm = revert(sess.mm, sess.snap, ep.ChangedRows)
		if tail != nil {
			if sess.tailMM = revert(sess.tailMM, sess.tailSnap, tm.ChangedRows); sess.tailMM == nil {
				sess.tailPct = 0
			}
		}
		return 0, 0, err
	}

	d.cache.Track(sess.fp, ep.Fingerprint)
	sess.snap, sess.fp = ep.Matrix, ep.Fingerprint
	if tail != nil {
		d.cache.Track(sess.tailFP, tm.Fingerprint)
		sess.tailSnap, sess.tailFP = tm.Matrix, tm.Fingerprint
	}

	sess.sinceCompact++
	if sess.sinceCompact >= d.cfg.CompactEvery {
		snap := &wal.SnapshotRecord{Epoch: sess.epoch, Fingerprint: sess.fp, Matrix: sess.snap, Advice: sess.lastAdvice,
			Tail: sess.tailSnap, TailPct: sess.tailPct, TailFingerprint: sess.tailFP}
		if err := sess.log.Compact(snap); err != nil {
			return 0, 0, err
		}
		sess.sinceCompact = 0
	}
	return sess.epoch, sess.fp, nil
}

// revert rolls mm back over a publish whose changed rows were rows, to the
// committed snapshot. Before the first committed epoch there is nothing to
// return to, so the matrix itself is dropped.
func revert(mm *core.MutableCostMatrix, committed *core.CostMatrix, rows []int) *core.MutableCostMatrix {
	if committed == nil {
		return nil
	}
	mm.Revert(committed, rows)
	return mm
}

// AdviseRequest is one advise call against a tenant's current matrix.
type AdviseRequest struct {
	// Tenant selects whose matrix to solve over; it must have at least one
	// epoch. Required.
	Tenant string
	// Graph defines the deployment problem's communication graph; required.
	Graph *core.Graph
	// ObjectiveSpec says what to optimize. Percentile metrics (p95, p99)
	// search the tenant's tail matrix — which its epochs must have posted
	// (TailUpdate) at the matching percentile — tie-breaking equal tail
	// costs on the mean matrix. The spec's Scheme is ignored: the daemon
	// serves posted matrices, it does not measure.
	advisor.ObjectiveSpec
	// SolverName, ClusterK, RoundBudget, Seed: as in Job.
	SolverName  string
	ClusterK    int
	RoundBudget solver.Budget
	Seed        int64
	// Timeout bounds the solve; zero selects DaemonConfig.DefaultTimeout.
	Timeout time.Duration
	// NoWarmStart suppresses seeding the solve from the tenant's last
	// logged advice.
	NoWarmStart bool
	// OnRound, when non-nil, streams each round as it completes (worker
	// goroutine; the HTTP front end flushes one JSON line per round).
	OnRound func(advisor.Round)
}

// Advise solves the request over the tenant's current matrix snapshot and,
// on success, logs the served advice to the tenant's WAL — making it the
// warm-start incumbent for the tenant's next advise, in this process
// lifetime or any later one. Admission errors (ErrBusy, ErrOverBudget)
// pass through for the caller's retry policy.
func (d *Daemon) Advise(req AdviseRequest) (*Result, error) {
	sess, err := d.session(req.Tenant, false)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	if sess.snap == nil {
		sess.mu.Unlock()
		return nil, fmt.Errorf("serve: tenant %q has no epochs", req.Tenant)
	}
	snap, fp, epoch := sess.snap, sess.fp, sess.epoch
	var tailSnap *core.CostMatrix
	if pct := req.TailPercentile(); pct > 0 {
		switch {
		case sess.tailSnap == nil:
			sess.mu.Unlock()
			return nil, fmt.Errorf("serve: tenant %q has no percentile matrix — metric %q needs tail rows posted with its epochs",
				req.Tenant, req.Metric)
		case sess.tailPct != pct:
			sess.mu.Unlock()
			return nil, fmt.Errorf("serve: tenant %q tail matrix is p%g, metric %q wants p%g",
				req.Tenant, sess.tailPct, req.Metric, pct)
		}
		tailSnap = sess.tailSnap
	}
	var warm core.Deployment
	if !req.NoWarmStart && sess.lastAdvice != nil && req.Graph != nil {
		dep := core.Deployment(sess.lastAdvice.Deployment)
		// Adopt the incumbent only when it fits this request's problem
		// shape; a tenant re-advising a different graph starts cold.
		if len(dep) == req.Graph.NumNodes() && dep.Validate(snap.Size()) == nil {
			warm = dep.Clone()
		}
	}
	sess.mu.Unlock()

	timeout := req.Timeout
	if timeout == 0 {
		timeout = d.cfg.DefaultTimeout
	}
	tk, err := d.srv.Submit(Job{
		Tenant:        req.Tenant,
		Graph:         req.Graph,
		ObjectiveSpec: req.ObjectiveSpec,
		Matrix:        snap,
		TailMatrix:    tailSnap,
		SolverName:    req.SolverName,
		ClusterK:      req.ClusterK,
		RoundBudget:   req.RoundBudget,
		Seed:          req.Seed,
		Timeout:       timeout,
		WarmStart:     warm,
		OnRound:       req.OnRound,
	})
	if err != nil {
		return nil, err
	}
	res := tk.Wait()
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
		// The session lock holds advice logging and incumbent adoption
		// together, so WAL order matches incumbent order and replay
		// restores exactly the incumbent a living daemon would hold.
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

// DaemonStats combines the serving fabric's counters with every tenant's
// durable state.
type DaemonStats struct {
	Server  Stats
	Tenants []TenantStatus
}

// Stats snapshots the daemon.
func (d *Daemon) Stats() DaemonStats {
	st := DaemonStats{Server: d.srv.Stats()}
	d.mu.Lock()
	sessions := make([]*tenantSession, 0, len(d.tenants))
	//cloudia:nondet-ok collection order is irrelevant: st.Tenants is sorted by tenant name below
	for _, s := range d.tenants {
		sessions = append(sessions, s)
	}
	d.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant:      s.name,
			Epoch:       s.epoch,
			Fingerprint: s.fp,
			Advised:     s.lastAdvice != nil,
			WAL:         s.log.Stats(),
		})
		s.mu.Unlock()
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// Close drains the serving fabric — in-flight jobs finish, their advice is
// logged — then flushes and closes every tenant's WAL. This is the SIGTERM
// path: drain first, sync last, so nothing acknowledged is lost.
func (d *Daemon) Close() error {
	d.srv.Close()
	d.mu.Lock()
	defer d.mu.Unlock()
	// Close in tenant-name order so "first error" means the same tenant on
	// every run — map order would report a different one each time.
	names := make([]string, 0, len(d.tenants))
	//cloudia:nondet-ok key collection only; the close loop below runs in sorted order
	for name := range d.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	var firstErr error
	for _, name := range names {
		s := d.tenants[name]
		s.mu.Lock()
		if err := s.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.mu.Unlock()
	}
	return firstErr
}
