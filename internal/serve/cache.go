package serve

import (
	"sync"
	"sync/atomic"

	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// Cache is the content-addressed store of the Prep rounded sets shared by
// every solve. A cluster-K rounded set (a class id per instance pair and
// the pairs grouped by class, about 5 bytes per pair) is a deterministic
// function of the cost-matrix content, so one solver.MatrixPrep per
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
type Cache struct {
	// maxMatrices bounds the number of distinct fingerprints retained;
	// beyond it the least-recently-used fingerprint's set is evicted.
	maxMatrices int

	mu       sync.Mutex
	matrices map[core.Fingerprint]*cacheEntry
	// holders counts, per matrix fingerprint, the tenant matrices (mean or
	// tail) currently at that content; see Track.
	holders map[core.Fingerprint]int
	tick    int64

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

// DefaultMaxMatrices bounds a serving cache that was not given an explicit
// capacity. An entry holds nothing but rounded sets, one per cluster count
// its advises round at, and a served advise rounds at one: about 5 bytes
// per instance pair (5 MB at 1000 instances, 84 MB at the daemon's 4096
// cap), so the default holds about 80 MB at 1000 instances; CacheStats.Bytes
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
		holders:     make(map[core.Fingerprint]int),
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

// Track records that one tenant matrix moved from content old to content
// next; 0 stands for no matrix, so Track(0, fp) registers a new holder.
// When old loses its last holder, its artifacts are retired at once rather
// than left for LRU eviction. Content another tenant still holds — a
// measurement group sharing one matrix — stays cached until the last of
// them moves on.
func (c *Cache) Track(old, next core.Fingerprint) {
	if old == next {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if next != 0 {
		c.holders[next]++
	}
	if old == 0 {
		return
	}
	if c.holders[old]--; c.holders[old] > 0 {
		return
	}
	delete(c.holders, old)
	if _, ok := c.matrices[old]; ok {
		delete(c.matrices, old)
		c.superseded.Add(1)
	}
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
	// Matrices is the number of distinct matrix fingerprints currently
	// held; Bytes is what their built rounded sets hold
	// (solver.MatrixPrep.Bytes), not counting the cost matrices, which
	// their tenants own.
	Matrices int   `json:"matrices"`
	Bytes    int64 `json:"bytes"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.matrices)
	var bytes int64
	//cloudia:nondet-ok a sum of integers is order-insensitive
	for _, e := range c.matrices {
		bytes += e.matrix.Bytes()
	}
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Superseded: c.superseded.Load(),
		Matrices:   n,
		Bytes:      bytes,
	}
}
