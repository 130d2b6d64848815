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

// Prep is a problem's preprocessing cache. The one matrix-wide artifact
// solvers share is the cost matrix rounded to the centers of a k-means
// clustering (Sect. 6.3.1), which CP's threshold descent and clustered MIP
// search: it is built at most once per Problem and cluster count, and
// shared by every portfolio member. The bootstrap incumbents (CP, MIP, SA)
// are memoized per Prep. What only one solver reads is not shared: that
// solver builds it per solve (MIP's rounded float64 matrix, degree order
// and transposes; G1's cheapest-link rows).
//
// The rounded sets live in a MatrixPrep. A Prep builds its own set lazily,
// on first read; a serving layer may instead install a set shared with
// other problems over identical content (ShareMatrix), so one tenant's
// k-means serves every tenant with the same matrix. Bootstrap incumbents
// and warm starts stay per Prep.
//
// Prep is safe for concurrent use. Distinct cluster counts are guarded by
// their own sync.Once, so racing portfolio members rounding at different
// counts never serialize behind one lock, while members demanding the same
// count block until the first build lands and then share it.
//
// The rounded sets are shared and immutable. Bootstrap returns a fresh
// copy of the memoized deployment, because solvers mutate their incumbent
// in place.
type Prep struct {
	p *Problem

	matrixOnce sync.Once
	matrix     *MatrixPrep

	// reads records every cluster count whose set was read through this
	// Prep, once each (see SharedReads).
	readMu sync.Mutex
	reads  []roundedRead

	bootMu sync.Mutex
	boots  map[bootKey]*prepBoot

	warmMu   sync.Mutex
	warm     core.Deployment
	warmCost float64
}

// MatrixPrep holds the rounded sets of one cost matrix's content, one per
// cluster count (cluster.Rounded, about 1 byte per instance pair when
// clustered). Each set is built once, on first read, so problems sharing
// one MatrixPrep share each build, including one in flight.
type MatrixPrep struct {
	costs *core.CostMatrix

	// bytes totals the sets built so far (see Bytes).
	bytes atomic.Int64

	mu      sync.Mutex
	rounded map[int]*prepRounded
}

// prepRounded memoizes one cluster count's rounded set.
type prepRounded struct {
	once sync.Once
	set  *cluster.Rounded
	err  error
}

// roundedRead records that a Prep read the set at cluster count k, and
// whether one of its reads ran the build.
type roundedRead struct {
	k     int
	built bool
}

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

// NewMatrixPrep returns an empty set over costs; nothing is built until
// first read.
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

// SharedReads counts the distinct cluster counts whose rounded set was read
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

func (pp *Prep) note(k int, built bool) {
	pp.readMu.Lock()
	defer pp.readMu.Unlock()
	for i := range pp.reads {
		if pp.reads[i].k == k {
			pp.reads[i].built = pp.reads[i].built || built
			return
		}
	}
	pp.reads = append(pp.reads, roundedRead{k, built})
}

// round returns the set for cluster count k, building it on first use, and
// whether this call built it.
func (m *MatrixPrep) round(k int) (set *cluster.Rounded, built bool, err error) {
	k = max(k, 0)
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
	return e.set, built, e.err
}

// RoundedSet is Prep.RoundedSet on the set itself.
func (m *MatrixPrep) RoundedSet(k int) (*cluster.Rounded, error) {
	set, _, err := m.round(k)
	return set, err
}

// Bytes reports the memory held by the rounded sets built so far, not
// counting the cost matrix they derive from.
func (m *MatrixPrep) Bytes() int64 { return m.bytes.Load() }

// RoundedSet returns the problem's cost matrix rounded to at most k clusters
// (Sect. 6.3.1) as a compact, class-grouped set, memoized per k. k <= 0
// disables clustering: the set searches the original matrix. CP and
// clustered MIP read this form; the set is shared and immutable.
func (pp *Prep) RoundedSet(k int) (*cluster.Rounded, error) {
	set, built, err := pp.Matrix().round(k)
	pp.note(max(k, 0), built)
	return set, err
}

// Rounded returns RoundedSet's float64 views, built afresh on every call:
// the rounded matrix (the original one when k <= 0) and every instance
// pair ascending by rounded cost. No solver reads them; cloudia-perf's
// probes do.
func (pp *Prep) Rounded(k int) (*core.CostMatrix, []core.CostPair, error) {
	set, err := pp.RoundedSet(k)
	if err != nil {
		return nil, nil, err
	}
	return set.Matrix(), set.CostPairs(), nil
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

// CheapestRows builds, for every instance u, the other instances sorted
// ascending by (cost from u, index): the candidate rows of the G1 greedy's
// cheapest-free cursors, built afresh on every call (G1 calls it once per
// solve). One flat backing array serves all rows: row u owns the fixed
// stride [u*(n-1), (u+1)*(n-1)).
func (pp *Prep) CheapestRows() [][]int32 {
	n := pp.p.Costs.Size()
	rows := make([][]int32, n)
	per := n - 1
	flat := make([]int32, n*per)
	for u := 0; u < n; u++ {
		rows[u] = cheapestRow(pp.p.Costs, u, flat[u*per:u*per:(u+1)*per])
	}
	return rows
}

// OffDiagonal returns the problem's off-diagonal cost values in row-major
// order (the "latency vector" of Sect. 6.2.2), built afresh on every call.
func (pp *Prep) OffDiagonal() []float64 { return pp.p.Costs.OffDiagonal() }

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
