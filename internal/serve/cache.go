package serve

import (
	"sync"
	"sync/atomic"

	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// Cache is the content-addressed Prep artifact store shared by every shard:
// cluster-K memo entries (rounded matrices, sorted pair lists, fitted
// clusterings) and cheapest-link row sets are immutable once built and are
// deterministic functions of the cost-matrix content, so they are keyed by
// core.CostMatrix.Fingerprint and shared across problems, tenants, and
// shards. Two tenants whose measurements produced identical matrices pay
// the dominant preprocessing cost — a k-means over all m^2 link costs, plus
// the m^2 log m pair sort — exactly once between them.
//
// Lookups are single-flight: concurrent requests for one (fingerprint, k)
// key serialize behind a sync.Once, so a burst of jobs over a fresh matrix
// computes each artifact once while the rest of the fleet blocks briefly
// and adopts, instead of every shard burning CPU on the same k-means.
//
// Invalidation is content-addressed too: a changed matrix has a new
// fingerprint, so stale artifacts can never be served for it. Retiring
// old content exists for memory, not correctness: Track counts the daemon
// tenants currently on each fingerprint and drops a fingerprint's
// artifacts once the last of them moves on, so a tenant's replaced
// matrices do not wait for LRU eviction, while content other tenants still
// share stays. Goroutines holding a retired entry simply finish adopting
// it; the content key guarantees what they adopted still matches their
// matrix.
type Cache struct {
	// maxMatrices bounds the number of distinct fingerprints retained;
	// beyond it the least-recently-used fingerprint's artifacts are
	// evicted.
	maxMatrices int

	mu       sync.Mutex
	matrices map[core.Fingerprint]*matrixEntry
	// graphs is the per-family sub-key space for graph-content artifacts:
	// the transposed-graph family is a function of the communication graph
	// alone, so it is keyed by core.Graph.Fingerprint in its own map —
	// longest-path fleets over one topology share the transpose across
	// every matrix epoch, and a matrix fingerprint can never alias a graph
	// fingerprint. Graph entries share the LRU tick but have their own
	// capacity (graphs weigh O(|E|), matrices O(n^2)).
	graphs map[core.Fingerprint]*graphEntry
	// holders counts, per matrix fingerprint, the tenant matrices (mean or
	// tail) currently at that content; see Track.
	holders map[core.Fingerprint]int
	tick    int64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	superseded atomic.Int64
}

// matrixEntry holds every artifact derived from one matrix content.
type matrixEntry struct {
	lastUse int64
	rounded map[int]*roundedSlot
	rows    *rowsSlot
}

type roundedSlot struct {
	once sync.Once
	art  *solver.RoundedArtifact
	err  error
}

type rowsSlot struct {
	once sync.Once
	art  *solver.RowsArtifact
}

// graphEntry holds the transposed-graph family for one graph content.
type graphEntry struct {
	lastUse int64
	once    sync.Once
	art     *solver.GraphArtifact
}

// DefaultMaxMatrices bounds a serving cache that was not given an explicit
// capacity. A 1000-instance matrix's artifacts weigh ~10^6 entries each, so
// the default keeps the cache in the low hundreds of MB at that scale.
const DefaultMaxMatrices = 16

// NewCache returns an empty cache retaining at most maxMatrices distinct
// matrix fingerprints (<= 0 selects DefaultMaxMatrices).
func NewCache(maxMatrices int) *Cache {
	if maxMatrices <= 0 {
		maxMatrices = DefaultMaxMatrices
	}
	return &Cache{
		maxMatrices: maxMatrices,
		matrices:    make(map[core.Fingerprint]*matrixEntry),
		graphs:      make(map[core.Fingerprint]*graphEntry),
		holders:     make(map[core.Fingerprint]int),
	}
}

// entryLocked returns fp's artifact set, creating (and LRU-evicting) as
// needed. Callers hold c.mu, and must resolve the slot they are after
// before releasing it: an eviction between two lockings could orphan a
// half-registered entry, breaking the single-flight guarantee.
func (c *Cache) entryLocked(fp core.Fingerprint) *matrixEntry {
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
			for f, m := range c.matrices {
				if m.lastUse < oldest || (m.lastUse == oldest && f < victim) {
					victim, oldest = f, m.lastUse
				}
			}
			delete(c.matrices, victim)
			c.evictions.Add(1)
		}
		e = &matrixEntry{rounded: make(map[int]*roundedSlot)}
		c.matrices[fp] = e
	}
	e.lastUse = c.tick
	return e
}

// Rounded ensures prep holds the cluster-k artifacts for the matrix
// identified by fp, serving them from the cache on a hit and computing them
// through prep (then publishing the export) on a miss. It reports whether
// the artifacts came from the cache. The caller owns the content contract:
// fp must be the fingerprint of prep's problem matrix, and the call must
// happen before any solver consults the Prep. Misses whose computed entry
// is not canonical (an evolved problem's patched fit) leave the cache slot
// empty without poisoning it; prep still holds its own usable artifacts.
func (c *Cache) Rounded(fp core.Fingerprint, k int, prep *solver.Prep) (hit bool, err error) {
	if k < 0 {
		k = 0
	}
	c.mu.Lock()
	e := c.entryLocked(fp)
	slot, ok := e.rounded[k]
	if !ok {
		slot = &roundedSlot{}
		e.rounded[k] = slot
	}
	c.mu.Unlock()

	computed := false
	slot.once.Do(func() {
		computed = true
		if _, _, err := prep.Rounded(k); err != nil {
			slot.err = err
			return
		}
		slot.art, _ = prep.ExportRounded(k)
	})
	if computed || slot.err != nil {
		c.misses.Add(1)
		return false, slot.err
	}
	if slot.art == nil {
		// The first requester's entry was not canonical; compute locally.
		c.misses.Add(1)
		_, _, err := prep.Rounded(k)
		return false, err
	}
	adopted := prep.AdoptRounded(slot.art)
	if _, _, err := prep.Rounded(k); err != nil {
		return false, err
	}
	if !adopted {
		// The Prep already held an entry for k (repeated call, or an
		// evolved problem keeping its incremental lineage): not a hit.
		c.misses.Add(1)
		return false, nil
	}
	c.hits.Add(1)
	return true, nil
}

// CheapestRows is Rounded's analogue for the G1 candidate rows, keyed by
// fingerprint alone (the rows do not depend on a cluster count).
func (c *Cache) CheapestRows(fp core.Fingerprint, prep *solver.Prep) (hit bool) {
	c.mu.Lock()
	e := c.entryLocked(fp)
	if e.rows == nil {
		e.rows = &rowsSlot{}
	}
	slot := e.rows
	c.mu.Unlock()

	computed := false
	slot.once.Do(func() {
		computed = true
		prep.CheapestRows()
		slot.art, _ = prep.ExportCheapestRows()
	})
	if computed || slot.art == nil {
		c.misses.Add(1)
		return false
	}
	adopted := prep.AdoptCheapestRows(slot.art)
	prep.CheapestRows()
	if !adopted {
		c.misses.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
}

// TransposedGraph ensures prep holds the transposed-graph family (the
// reversed communication graph and its topological order) for the graph
// identified by gfp — which must be core.Graph.Fingerprint of prep's
// problem graph — serving it from the cache on a hit and computing through
// prep on a miss. Longest-path portfolios branch-and-bound over the
// transpose, so a fleet of tenants sharing one topology builds it once even
// as their cost matrices (and matrix-keyed artifacts) churn every epoch.
func (c *Cache) TransposedGraph(gfp core.Fingerprint, prep *solver.Prep) (hit bool) {
	c.mu.Lock()
	c.tick++
	e, ok := c.graphs[gfp]
	if !ok {
		if len(c.graphs) >= c.maxMatrices {
			var victim core.Fingerprint
			oldest := int64(1<<63 - 1)
			// Same deterministic (lastUse, fingerprint) victim selection as
			// the matrix cache above.
			//cloudia:nondet-ok min over the totally ordered (lastUse, fingerprint) pair is order-insensitive
			for f, g := range c.graphs {
				if g.lastUse < oldest || (g.lastUse == oldest && f < victim) {
					victim, oldest = f, g.lastUse
				}
			}
			delete(c.graphs, victim)
			c.evictions.Add(1)
		}
		e = &graphEntry{}
		c.graphs[gfp] = e
	}
	e.lastUse = c.tick
	c.mu.Unlock()

	computed := false
	e.once.Do(func() {
		computed = true
		prep.TransposedGraph()
		e.art, _ = prep.ExportTransposedGraph()
	})
	if computed || e.art == nil {
		c.misses.Add(1)
		return false
	}
	adopted := prep.AdoptTransposedGraph(e.art)
	prep.TransposedGraph()
	if !adopted {
		c.misses.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
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
	// Hits counts artifact requests served from a prior export; Misses
	// counts requests that computed (or recomputed) locally.
	Hits, Misses int64
	// Evictions counts LRU capacity evictions; Superseded counts
	// fingerprints retired by Track when their last holder moved on.
	Evictions, Superseded int64
	// Matrices is the number of distinct matrix fingerprints currently
	// held; Graphs counts the graph-content family entries.
	Matrices int
	Graphs   int
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n, ng := len(c.matrices), len(c.graphs)
	c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Superseded: c.superseded.Load(),
		Matrices:   n,
		Graphs:     ng,
	}
}
