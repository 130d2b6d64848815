package main

import (
	"fmt"
	"math/rand"
	"net/http"

	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/serve"
	"cloudia/internal/wal"
)

// tailPct is the percentile the ingest and fleet tenants post tail rows for.
const tailPct = 99

// epochGen produces one measurement's epochs — the rows a tenant posts —
// and mirrors the matrices the daemon must hold after each one, so every
// ack and every advice can be checked against the generator.
type epochGen struct {
	n       int
	base    *core.CostMatrix
	rng     *rand.Rand
	rowsPer int

	mean, tail *core.MutableCostMatrix
	epoch      int
}

// epochStep is one generated epoch and what the daemon must acknowledge.
type epochStep struct {
	epoch      int
	rows       []int
	vals, tail [][]float64
	fp         core.Fingerprint // mean-matrix fingerprint after the epoch
}

func newEpochGen(base *core.CostMatrix, seed int64, rowsPer int) *epochGen {
	n := base.Size()
	return &epochGen{n: n, base: base, rng: rand.New(rand.NewSource(seed)), rowsPer: rowsPer,
		mean: core.NewMutableCostMatrix(n), tail: core.NewMutableCostMatrix(n)}
}

// full is the first epoch: every row, measured with 5% noise.
func (g *epochGen) full() epochStep {
	rows := make([]int, g.n)
	for i := range rows {
		rows[i] = i
	}
	return g.step(rows)
}

// next changes rowsPer distinct rows; each carries its full new contents.
func (g *epochGen) next() epochStep {
	return g.step(g.rng.Perm(g.n)[:g.rowsPer])
}

func (g *epochGen) step(rows []int) epochStep {
	s := epochStep{rows: rows, vals: make([][]float64, len(rows)), tail: make([][]float64, len(rows))}
	for k, i := range rows {
		v := make([]float64, g.n)
		noisyRow(v, g.base, i, 0.05, g.rng)
		t := make([]float64, g.n)
		for j := range t {
			t[j] = v[j] * (1.2 + 0.3*g.rng.Float64())
		}
		s.vals[k], s.tail[k] = v, t
		for j := 0; j < g.n; j++ {
			g.mean.Set(i, j, v[j])
			g.tail.Set(i, j, t[j])
		}
	}
	g.epoch++
	s.epoch = g.epoch
	s.fp = g.mean.Fingerprint()
	return s
}

// matrices snapshots the mirrored mean and tail matrices.
func (g *epochGen) matrices() (mean, tail *core.CostMatrix) {
	mean, _ = g.mean.Snapshot()
	tail, _ = g.tail.Snapshot()
	return mean, tail
}

// epochMirror is the benchmark's own copy of the state behind one tenant's
// epochs — its matrices and a WAL opened with SyncNone and synced
// explicitly — on which traced runs replay the steps Daemon.AppendEpoch
// hides: publish, tail publish, WAL append, fsync, compaction.
type epochMirror struct {
	mean, tail  *core.MutableCostMatrix
	log         *wal.Log
	dir         string
	epoch       int   // the tenant's epoch count on the shadow
	compactions int64 // the shadow's compactions of the tenant's log
}

// newEpochMirror takes ownership of mean and tail (nil for tenants that
// post no tail rows); epoch is how many epochs the shadow already holds for
// the tenant.
func newEpochMirror(r *runner, sh *shadow, tenant string, mean, tail *core.MutableCostMatrix, epoch int) (*epochMirror, error) {
	dir := r.scratch("mirror")
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone}, nil)
	if err != nil {
		return nil, err
	}
	r.teardowns = append(r.teardowns, log.Close)
	return &epochMirror{mean: mean, tail: tail, log: log, dir: dir, epoch: epoch, compactions: sh.compactions(tenant)}, nil
}

func copyMutable(src *core.MutableCostMatrix) *core.MutableCostMatrix {
	n := src.Size()
	dst := core.NewMutableCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst.Set(i, j, src.At(i, j))
		}
	}
	dst.Snapshot()
	dst.Fingerprint()
	return dst
}

// replayEpoch times one epoch POST's layers under the path span root: the
// shadow's HTTP front end on the same rows (see shadow.frontEnd), the
// shadow's AppendEpoch, and inside that the steps AppendEpoch hides, on the
// mirror. The shadow must acknowledge the fingerprint the real daemon did.
// The mirror compacts when the shadow did, so it follows serve's
// compaction policy rather than keeping a copy of it.
func (r *runner) replayEpoch(p *phase, req int64, root int, sh *shadow, m *epochMirror,
	tenant string, s epochStep) {
	tr := p.tr
	n := m.mean.Size()
	pct, tailRows := 0.0, [][]float64(nil)
	if m.tail != nil {
		pct, tailRows = tailPct, s.tail
	}
	refused := epochBody(nil, tenant, 0, s.rows, s.vals, pct, tailRows)
	p.add("http.request_bytes", float64(len(refused)))
	var err error
	tr.replay(req, root, "http.epoch", func() { err = sh.frontEnd("/v1/epoch", refused, http.StatusBadRequest, "matrix size 0") })
	if err != nil {
		r.wrongf("%v", err)
		return
	}
	var tu *serve.TailUpdate
	if m.tail != nil {
		tu = &serve.TailUpdate{Pct: tailPct, Rows: rowDeltas(s.rows, s.tail)}
	}
	var epoch int
	var fp core.Fingerprint
	id := tr.replay(req, root, "serve.append_epoch", func() {
		epoch, fp, err = sh.d.AppendEpoch(tenant, n, rowDeltas(s.rows, s.vals), tu)
	})
	m.epoch++
	if err == nil && (epoch != m.epoch || fp != s.fp) {
		err = fmt.Errorf("shadow acknowledged epoch %d fingerprint %s, want epoch %d fingerprint %s", epoch, fpHex(fp), m.epoch, fpHex(s.fp))
	}
	if err != nil {
		r.wrongf("shadow AppendEpoch for %s: %v", tenant, err)
		return
	}

	var ep measure.Epoch
	tr.replay(req, id, "measure.publish", func() {
		setRows(m.mean, s.rows, s.vals)
		ep = measure.PublishEpoch(m.mean, 0, true, 0)
	})
	rec := &wal.EpochRecord{Epoch: m.epoch, Fingerprint: ep.Fingerprint, N: n, Rows: rowDeltas(s.rows, s.vals)}
	var tm measure.TailMatrix
	if m.tail != nil {
		tr.replay(req, id, "measure.publish_tail", func() {
			setRows(m.tail, s.rows, s.tail)
			tm = measure.PublishTail(m.tail, tailPct)
		})
		rec.TailPct, rec.TailFingerprint, rec.TailRows = tailPct, tm.Fingerprint, rowDeltas(s.rows, s.tail)
	}
	before := dirBytes(m.dir)
	tr.replay(req, id, "wal.append", func() { err = m.log.Append(rec) })
	if err == nil {
		tr.replay(req, id, "wal.fsync", func() { err = m.log.Sync() })
	}
	written := dirBytes(m.dir) - before
	if c := sh.compactions(tenant); err == nil && c > m.compactions {
		m.compactions = c
		snap := &wal.SnapshotRecord{Epoch: m.epoch, Fingerprint: ep.Fingerprint, Matrix: ep.Matrix}
		if m.tail != nil {
			snap.Tail, snap.TailPct, snap.TailFingerprint = tm.Matrix, tailPct, tm.Fingerprint
		}
		tr.replay(req, id, "wal.compact", func() { err = m.log.Compact(snap) })
		written += dirBytes(m.dir)
	}
	if err != nil {
		r.wrongf("mirror WAL for %s: %v", tenant, err)
	}
	p.count("wal.disk_bytes", float64(written))
	p.count("wal.epochs", 1)
}

func setRows(m *core.MutableCostMatrix, rows []int, vals [][]float64) {
	for k, i := range rows {
		for j, v := range vals[k] {
			m.Set(i, j, v)
		}
	}
}

// counters snapshots the daemon counters traced runs report as deltas.
func counters(d *serve.Daemon) map[string]float64 {
	st := d.Stats()
	c := map[string]float64{
		"serve.rejected":   float64(st.Server.Rejected),
		"serve.steals":     float64(st.Server.Steals),
		"cache.hits":       float64(st.Server.Cache.Hits),
		"cache.misses":     float64(st.Server.Cache.Misses),
		"cache.evictions":  float64(st.Server.Cache.Evictions),
		"cache.superseded": float64(st.Server.Cache.Superseded),
	}
	for _, t := range st.Tenants {
		c["wal.syncs"] += float64(t.WAL.Syncs)
		c["wal.appends"] += float64(t.WAL.Appends)
	}
	return c
}

// setCounterDeltas records after-before for every counter.
func (p *phase) setCounterDeltas(before, after map[string]float64) {
	for k, v := range after {
		p.set(k, v-before[k])
	}
}
