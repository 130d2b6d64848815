package serve

import (
	"sync"
	"sync/atomic"

	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// Cache is the content-addressed store of the Prep rounded sets shared by
// every solve. A cluster-K rounded set (a one-byte class id per instance
// pair, about 1 byte per pair) is a deterministic function of the
// cost-matrix content, so one solver.MatrixPrep per
// core.CostMatrix.Fingerprint serves every problem, tenant and solve over
// that content. Two tenants whose measurements produced identical matrices
// pay the dominant preprocessing cost — a k-means over all m^2 link costs
// and the bucketed sort that feeds it — exactly once between them.
//
// The cache shares sets by reference and builds nothing itself: a job
// installs the set before its solver runs, and each rounded set is built on
// its first read. The sets' own sync.Onces make builds single-flight, so a
// burst of jobs over a fresh matrix rounds once while the rest of the fleet
// blocks briefly and shares the result.
//
// Invalidation is content-addressed too: a changed matrix has a new
// fingerprint, so stale sets can never be served for it. Retiring
// old content exists for memory, not correctness: Track counts the daemon
// tenants currently on each fingerprint and drops a fingerprint's set once
// the last of them moves on, so a tenant's replaced matrices do not wait
// for LRU eviction, while content other tenants still share stays. Jobs
// holding a retired set simply finish with it; the content key guarantees
// it still matches their matrix.
//
// The tenant matrices themselves are content-addressed the same way: Track
// keeps one canonical snapshot per distinct content that tenants hold and
// hands it to every tenant that commits that content, so a measurement
// group's equal matrices are held once, not once per tenant. Sharing
// follows the bits, not the key: a snapshot is shared only with an
// identical one (core.CostMatrix.Identical), so an equal fingerprint over
// different values — a hash collision, or -0 against +0 under a forged
// key — gets its own copy.
type Cache struct {
	// maxMatrices bounds the number of distinct fingerprints retained;
	// beyond it the least-recently-used fingerprint's set is evicted.
	maxMatrices int

	mu       sync.Mutex
	matrices map[core.Fingerprint]*cacheEntry
	// held maps each fingerprint a tenant matrix (mean or tail) is at to
	// the distinct contents tenants hold under it, each with its canonical
	// snapshot; see Track. A fingerprint has one content unless its hash
	// collides.
	held map[core.Fingerprint][]*heldSnap
	tick int64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	superseded atomic.Int64
}

// cacheEntry holds one matrix content's shared set and its LRU tick.
type cacheEntry struct {
	lastUse int64
	matrix  *solver.MatrixPrep
}

// heldSnap is one distinct tenant-matrix content: the canonical snapshot
// every tenant matrix at that content holds, and how many do.
type heldSnap struct {
	snap    *core.CostMatrix
	holders int
}

// DefaultMaxMatrices bounds a serving cache that was not given an explicit
// capacity. An entry holds nothing but rounded sets, one per cluster count
// its advises round at, and a served advise rounds at one: about 1 byte
// per instance pair (1 MB at 1000 instances, 17 MB at the daemon's 4096
// cap), so the default holds about 16 MB at 1000 instances; CacheStats.Bytes
// reports the actual figure.
const DefaultMaxMatrices = 16

// NewCache returns an empty cache retaining at most maxMatrices distinct
// matrix fingerprints (<= 0 selects DefaultMaxMatrices).
func NewCache(maxMatrices int) *Cache {
	if maxMatrices <= 0 {
		maxMatrices = DefaultMaxMatrices
	}
	return &Cache{
		maxMatrices: maxMatrices,
		matrices:    make(map[core.Fingerprint]*cacheEntry),
		held:        make(map[core.Fingerprint][]*heldSnap),
	}
}

// matrix returns fp's shared set, publishing the one newSet returns when
// the cache holds none; a new entry evicts the least recently used one when
// the cache is full.
func (c *Cache) matrix(fp core.Fingerprint, newSet func() *solver.MatrixPrep) *solver.MatrixPrep {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	e, ok := c.matrices[fp]
	if !ok {
		if len(c.matrices) >= c.maxMatrices {
			var victim core.Fingerprint
			oldest := int64(1<<63 - 1)
			// Min over (lastUse, fingerprint): the fingerprint tie-break
			// makes the victim unique, so scan order cannot pick a
			// different entry on equal ticks.
			//cloudia:nondet-ok min over the totally ordered (lastUse, fingerprint) pair is order-insensitive
			for f, v := range c.matrices {
				if v.lastUse < oldest || (v.lastUse == oldest && f < victim) {
					victim, oldest = f, v.lastUse
				}
			}
			delete(c.matrices, victim)
			c.evictions.Add(1)
		}
		e = &cacheEntry{matrix: newSet()}
		c.matrices[fp] = e
	}
	e.lastUse = c.tick
	return e.matrix
}

// share makes prep read the shared matrix set for fp — the fingerprint of
// prep's problem matrix — publishing prep's own set where the cache holds
// none. It must run before any solver reads the Prep.
func (c *Cache) share(fp core.Fingerprint, prep *solver.Prep) {
	prep.ShareMatrix(c.matrix(fp, prep.Matrix))
}

// record adds one job's shared reads (solver.Prep.SharedReads) to the
// counters.
func (c *Cache) record(hits, misses int) {
	c.hits.Add(int64(hits))
	c.misses.Add(int64(misses))
}

// Rounded makes prep read fp's shared matrix set, unless it already reads
// a set, and reads its cluster-k rounded set, counting a hit when the read
// is prep's first at k and someone else built the set; a repeated read is
// a miss. fp must be the fingerprint of prep's problem matrix.
func (c *Cache) Rounded(fp core.Fingerprint, k int, prep *solver.Prep) (hit bool, err error) {
	c.share(fp, prep)
	before, _ := prep.SharedReads()
	_, err = prep.RoundedSet(k)
	after, _ := prep.SharedReads()
	if hit = err == nil && after > before; hit {
		c.record(1, 0)
	} else {
		c.record(0, 1)
	}
	return hit, err
}

// CheapestRows builds prep's G1 candidate rows. They are not a shared
// artifact, so it counts nothing and never hits; cloudia-perf's probes
// still call it.
func (c *Cache) CheapestRows(fp core.Fingerprint, prep *solver.Prep) (hit bool) {
	prep.CheapestRows()
	return false
}

// Track records that one tenant matrix moved from snapshot old, at
// fingerprint oldFP, to snapshot next, at fingerprint fp, and returns the
// snapshot the tenant holds from now on: the canonical one for next's
// content, which is next itself unless another tenant matrix already holds
// identical content. nil stands for no matrix on either side, so
// Track(0, nil, fp, next) registers a new holder. old must be what an
// earlier Track returned. When old's content loses its last holder, the
// cache drops its snapshot, and when no content is left at oldFP, its
// artifacts are retired at once rather than left for LRU eviction. Content
// another tenant still holds — a measurement group sharing one matrix —
// stays until the last of them moves on. Finding an equal content compares
// next with the held snapshot at fp, an O(n^2) scan under the cache lock
// unless the two share storage.
func (c *Cache) Track(oldFP core.Fingerprint, old *core.CostMatrix, fp core.Fingerprint, next *core.CostMatrix) *core.CostMatrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	if next != nil {
		next = c.hold(fp, next)
	}
	if old != nil {
		c.release(oldFP, old)
	}
	return next
}

// hold counts one more holder of m's content at fp and returns the
// content's canonical snapshot. c.mu must be held.
func (c *Cache) hold(fp core.Fingerprint, m *core.CostMatrix) *core.CostMatrix {
	for _, h := range c.held[fp] {
		if h.snap.Identical(m) {
			h.holders++
			return h.snap
		}
	}
	c.held[fp] = append(c.held[fp], &heldSnap{snap: m, holders: 1})
	return m
}

// release drops one holder of the canonical snapshot m at fp, the snapshot
// once it has none, and fp's artifacts once no content is held at fp. c.mu
// must be held.
func (c *Cache) release(fp core.Fingerprint, m *core.CostMatrix) {
	hs := c.held[fp]
	for i, h := range hs {
		if h.snap == m {
			if h.holders--; h.holders == 0 {
				hs = append(hs[:i], hs[i+1:]...)
			}
			break
		}
	}
	if len(hs) > 0 {
		c.held[fp] = hs
		return
	}
	delete(c.held, fp)
	if _, ok := c.matrices[fp]; ok {
		delete(c.matrices, fp)
		c.superseded.Add(1)
	}
}

// clear drops every shared set and every held snapshot; the counters stay.
// A closed daemon clears its cache so that it pins no matrix.
func (c *Cache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.matrices = make(map[core.Fingerprint]*cacheEntry)
	c.held = make(map[core.Fingerprint][]*heldSnap)
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	// Hits counts rounded sets a job (or a Rounded call) read that
	// another had built; Misses counts the rest.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts LRU capacity evictions; Superseded counts
	// fingerprints retired by Track when their last holder moved on.
	Evictions  int64 `json:"evictions"`
	Superseded int64 `json:"superseded"`
	// Matrices is the number of distinct matrix fingerprints whose shared
	// sets are held; Bytes is what their built rounded sets hold
	// (solver.MatrixPrep.Bytes), not counting the cost matrices, which
	// Snapshots counts.
	Matrices int   `json:"matrices"`
	Bytes    int64 `json:"bytes"`
	// Snapshots is the number of distinct tenant-matrix contents held
	// (Track), SnapshotBytes their cost values, 8 bytes per instance pair,
	// each content counted once however many tenants hold it, and
	// SnapshotHolders the number of tenant matrices (mean or tail) that
	// hold them. SnapshotHolders over Snapshots is the sharing factor.
	Snapshots       int   `json:"snapshots"`
	SnapshotBytes   int64 `json:"snapshot_bytes"`
	SnapshotHolders int   `json:"snapshot_holders"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	st := CacheStats{Matrices: len(c.matrices)}
	//cloudia:nondet-ok a sum of integers is order-insensitive
	for _, e := range c.matrices {
		st.Bytes += e.matrix.Bytes()
	}
	//cloudia:nondet-ok sums of integers are order-insensitive
	for _, hs := range c.held {
		for _, h := range hs {
			size := int64(h.snap.Size())
			st.Snapshots++
			st.SnapshotBytes += 8 * size * size
			st.SnapshotHolders += h.holders
		}
	}
	c.mu.Unlock()
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	st.Evictions = c.evictions.Load()
	st.Superseded = c.superseded.Load()
	return st
}
