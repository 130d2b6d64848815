package solver

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"cloudia/internal/cluster"
	"cloudia/internal/core"
)

// Prep is a problem's shared preprocessing cache. It holds the derived
// artifacts that solvers and repeated solver calls share — rounded cost
// sets (CP) and their float64 matrix and pair-list views (clustered MIP),
// per-instance cheapest-link rows (G1), the off-diagonal cost values and
// bootstrap incumbents (CP, MIP, SA) — each computed at most once per
// Problem and shared by every portfolio member. What only one solver
// reads, like MIP's degree order and transposed search structures, that
// solver builds per solve.
//
// The matrix-derived artifacts live in a MatrixPrep. A Prep builds its own
// set lazily, on first read; a serving layer may instead install a set
// shared with other problems over identical content (ShareMatrix), so one
// tenant's k-means serves every tenant with the same matrix. Bootstrap
// incumbents and warm starts stay per Prep.
//
// Prep is safe for concurrent use. Distinct artifacts (and distinct
// cluster-K values) are guarded by their own sync.Once, so racing portfolio
// members computing different artifacts never serialize behind one lock,
// while members demanding the same artifact block until the first
// computation lands and then share it.
//
// Everything returned by Prep is shared and immutable: callers must not
// modify returned matrices, slices, or pair lists. The only
// exception is Bootstrap, which returns a fresh copy of the memoized
// deployment because solvers mutate their incumbent in place.
type Prep struct {
	p *Problem

	matrixOnce sync.Once
	matrix     *MatrixPrep

	// reads records every matrix-set artifact read through this Prep, once
	// each (see SharedReads).
	readMu sync.Mutex
	reads  []artifactRead

	bootMu sync.Mutex
	boots  map[bootKey]*prepBoot

	warmMu   sync.Mutex
	warm     core.Deployment
	warmCost float64
}

// MatrixPrep holds the Prep artifacts that are deterministic functions of
// the cost matrix's content alone: the rounded set per cluster count
// (cluster.Rounded, about 5 bytes per instance pair when clustered), the
// cheapest-link rows and the off-diagonal values. Every artifact is built
// once, on first read, so problems sharing one MatrixPrep share each build,
// including one in flight.
type MatrixPrep struct {
	costs *core.CostMatrix

	// bytes totals the artifacts built so far (see Bytes).
	bytes atomic.Int64

	mu      sync.Mutex
	rounded map[int]*prepRounded

	rowsOnce sync.Once
	rows     [][]int32

	offOnce sync.Once
	offDiag []float64
}

// prepRounded memoizes one cluster-K's rounded set and, once some reader
// asks for them, its float64 matrix and CostPair list views.
type prepRounded struct {
	once sync.Once
	set  *cluster.Rounded
	err  error

	viewOnce sync.Once
	m        *core.CostMatrix
	pairs    []core.CostPair
}

// artifact names one matrix-set artifact in a Prep's read record.
type artifact struct {
	kind artifactKind
	k    int
}

// artifactRead records that a Prep read an artifact, and whether one of its
// reads ran the build.
type artifactRead struct {
	artifact
	built bool
}

type artifactKind uint8

const (
	artRounded artifactKind = iota
	artCheapestRows
	artOffDiagonal
)

type bootKey struct {
	samples int
	seed    int64
}

type prepBoot struct {
	once sync.Once
	d    core.Deployment
	cost float64
}

func newPrep(p *Problem) *Prep {
	return &Prep{
		p:     p,
		boots: make(map[bootKey]*prepBoot),
	}
}

// NewMatrixPrep returns an empty artifact set over costs; nothing is built
// until first read.
func NewMatrixPrep(costs *core.CostMatrix) *MatrixPrep {
	return &MatrixPrep{costs: costs, rounded: make(map[int]*prepRounded)}
}

// Matrix returns the matrix set this Prep reads: the shared one installed by
// ShareMatrix, or else its own, built empty on this first call.
func (pp *Prep) Matrix() *MatrixPrep {
	pp.matrixOnce.Do(func() { pp.matrix = NewMatrixPrep(pp.p.Costs) })
	return pp.matrix
}

// ShareMatrix makes m the matrix set this Prep reads, and reports whether it
// did: it fails once the Prep holds a set, its own or a shared one. The
// caller owns the content contract: m must have been built over a matrix
// whose content (fingerprint) equals this problem's.
func (pp *Prep) ShareMatrix(m *MatrixPrep) bool {
	shared := false
	pp.matrixOnce.Do(func() { pp.matrix, shared = m, true })
	return shared
}

// SharedReads counts the distinct matrix-set artifacts read
// through this Prep: misses are those whose build ran inside one of its
// reads, hits those another Prep sharing the set built (or was building).
func (pp *Prep) SharedReads() (hits, misses int) {
	pp.readMu.Lock()
	defer pp.readMu.Unlock()
	for _, r := range pp.reads {
		if r.built {
			misses++
		} else {
			hits++
		}
	}
	return hits, misses
}

func (pp *Prep) note(a artifact, built bool) {
	pp.readMu.Lock()
	defer pp.readMu.Unlock()
	for i := range pp.reads {
		if pp.reads[i].artifact == a {
			pp.reads[i].built = pp.reads[i].built || built
			return
		}
	}
	pp.reads = append(pp.reads, artifactRead{a, built})
}

// round returns the memo cell for cluster count k >= 0, building its set on
// first use; callers map every k <= 0 to the unclustered cell 0.
func (m *MatrixPrep) round(k int) (e *prepRounded, built bool) {
	m.mu.Lock()
	e, ok := m.rounded[k]
	if !ok {
		e = &prepRounded{}
		m.rounded[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		built = true
		if e.set, e.err = cluster.Round(m.costs, k); e.err == nil {
			m.bytes.Add(e.set.Bytes())
		}
	})
	return e, built
}

// view returns the cell's float64 matrix and CostPair list, building them
// on first use.
func (m *MatrixPrep) view(e *prepRounded) (*core.CostMatrix, []core.CostPair, error) {
	if e.err != nil {
		return nil, nil, e.err
	}
	e.viewOnce.Do(func() {
		e.m, e.pairs = e.set.Matrix(), e.set.CostPairs()
		if e.m != m.costs {
			m.bytes.Add(8 * int64(e.m.Size()) * int64(e.m.Size()))
		}
		m.bytes.Add(16 * int64(len(e.pairs))) // a CostPair is 16 bytes
	})
	return e.m, e.pairs, nil
}

// RoundedSet is Prep.RoundedSet on the set itself.
func (m *MatrixPrep) RoundedSet(k int) (*cluster.Rounded, error) {
	e, _ := m.round(max(k, 0))
	return e.set, e.err
}

// Rounded is Prep.Rounded on the set itself.
func (m *MatrixPrep) Rounded(k int) (*core.CostMatrix, []core.CostPair, error) {
	e, _ := m.round(max(k, 0))
	return m.view(e)
}

// Bytes reports the memory held by the artifacts built so far, not
// counting the cost matrix they derive from.
func (m *MatrixPrep) Bytes() int64 { return m.bytes.Load() }

// RoundedSet returns the problem's cost matrix rounded to at most k clusters
// (Sect. 6.3.1) as a compact, class-grouped set, memoized per k. k <= 0
// disables clustering: the set searches the original matrix. CP reads this
// form; the set is shared and immutable.
func (pp *Prep) RoundedSet(k int) (*cluster.Rounded, error) {
	k = max(k, 0)
	e, built := pp.Matrix().round(k)
	pp.note(artifact{artRounded, k}, built)
	return e.set, e.err
}

// Rounded returns RoundedSet's float64 views: the rounded matrix (the
// original one when k <= 0) and every instance pair ascending by rounded
// cost, for consumers that need those forms (MIP, the figures). The views
// are built on the first call per k and kept with the set; the served
// portfolio never asks for them. Shared — callers must not modify them.
func (pp *Prep) Rounded(k int) (*core.CostMatrix, []core.CostPair, error) {
	k = max(k, 0)
	e, built := pp.Matrix().round(k)
	pp.note(artifact{artRounded, k}, built)
	return pp.Matrix().view(e)
}

// cheapestRow builds instance u's candidate row: the other instances sorted
// ascending by (cost from u, index).
func cheapestRow(m *core.CostMatrix, u int, row []int32) []int32 {
	n := m.Size()
	for v := 0; v < n; v++ {
		if v != u {
			row = append(row, int32(v))
		}
	}
	cu := m.Row(u)
	sort.Slice(row, func(i, j int) bool {
		ci, cj := cu[row[i]], cu[row[j]]
		if ci != cj {
			return ci < cj
		}
		return row[i] < row[j]
	})
	return row
}

func (m *MatrixPrep) cheapestRows() (rows [][]int32, built bool) {
	m.rowsOnce.Do(func() {
		built = true
		n := m.costs.Size()
		rows := make([][]int32, n)
		per := n - 1
		flat := make([]int32, n*per)
		for u := 0; u < n; u++ {
			rows[u] = cheapestRow(m.costs, u, flat[u*per:u*per:(u+1)*per])
		}
		m.rows = rows
		m.bytes.Add(4*int64(len(flat)) + 24*int64(n)) // plus a slice header per row
	})
	return m.rows, built
}

// CheapestRows is Prep.CheapestRows on the set itself.
func (m *MatrixPrep) CheapestRows() [][]int32 {
	rows, _ := m.cheapestRows()
	return rows
}

// CheapestRows returns, for every instance u, the other instances sorted
// ascending by (cost from u, index) — the candidate rows consumed by the G1
// greedy's cheapest-free cursors. One flat backing array serves all rows:
// row u owns the fixed stride [u*(n-1), (u+1)*(n-1)). Shared; callers must
// not modify the rows.
func (pp *Prep) CheapestRows() [][]int32 {
	rows, built := pp.Matrix().cheapestRows()
	pp.note(artifact{kind: artCheapestRows}, built)
	return rows
}

// OffDiagonal returns the problem's off-diagonal cost values in row-major
// order (the "latency vector" of Sect. 6.2.2), memoized. Shared; callers
// must not modify it.
func (pp *Prep) OffDiagonal() []float64 {
	m := pp.Matrix()
	built := false
	m.offOnce.Do(func() {
		built = true
		m.offDiag = m.costs.OffDiagonal()
		m.bytes.Add(8 * int64(len(m.offDiag)))
	})
	pp.note(artifact{kind: artOffDiagonal}, built)
	return m.offDiag
}

// WarmStart installs a warm incumbent for this problem epoch: every later
// Bootstrap call returns the better of its seeded random draw and d
// evaluated under this problem's matrix. Streaming advisors use this to
// carry the previous epoch's incumbent into the next round's portfolio, so
// each round refines rather than restarts (and the warm incumbent also
// becomes the shared starting point of the local-search members). The
// deployment is copied; WarmStart must be called before the solvers that
// should see it first consult Bootstrap, because completed bootstrap memo
// entries are not revisited.
func (pp *Prep) WarmStart(d core.Deployment) error {
	if len(d) != pp.p.NumNodes() {
		return fmt.Errorf("solver: warm start covers %d nodes, problem has %d", len(d), pp.p.NumNodes())
	}
	if err := d.Validate(pp.p.NumInstances()); err != nil {
		return err
	}
	cost := pp.p.Cost(d)
	pp.warmMu.Lock()
	if pp.warm == nil || cost < pp.warmCost {
		pp.warm, pp.warmCost = d.Clone(), cost
	}
	pp.warmMu.Unlock()
	return nil
}

// Bootstrap returns the best of `samples` seeded random deployments and its
// cost (Sect. 6.3.1's initial-solution strategy), memoized per
// (samples, seed) so solvers sharing a seed — CP, MIP, and the first SA
// restart all bootstrap identically — draw the incumbent once. Any
// installed WarmStart deployment competes with the random draw. The
// deployment is a fresh copy: callers may mutate it freely.
func (pp *Prep) Bootstrap(samples int, seed int64) (core.Deployment, float64) {
	if samples < 1 {
		samples = 1
	}
	key := bootKey{samples: samples, seed: seed}
	pp.bootMu.Lock()
	b, ok := pp.boots[key]
	if !ok {
		b = &prepBoot{}
		pp.boots[key] = b
	}
	pp.bootMu.Unlock()
	b.once.Do(func() {
		rng := rand.New(rand.NewSource(seed))
		b.d, b.cost = Bootstrap(pp.p, samples, rng)
		pp.warmMu.Lock()
		if pp.warm != nil && pp.warmCost < b.cost {
			b.d, b.cost = pp.warm.Clone(), pp.warmCost
		}
		pp.warmMu.Unlock()
	})
	return b.d.Clone(), b.cost
}
