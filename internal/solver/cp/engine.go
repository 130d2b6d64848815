package cp

import (
	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// engine is one backtracking feasibility searcher. All of its state — the
// domain words, the incremental domain sizes, and the per-depth trail arena —
// is allocated once at construction and reused across every feasibility
// check of the descent, so steady-state search performs zero allocations.
// The descent owns exactly one engine, which reads the descent's threshold
// graphs and value order.
type engine struct {
	d     *descent
	clock *solver.Clock

	domWords []uint64 // n * wpd: current domain of every variable
	dom      []bitset // views into domWords
	domSize  []int32  // |dom[i]|, maintained incrementally
	assigned []int32  // instance per variable, -1 if unassigned

	// Bucketed domain-size index: bCnt[s] counts the unassigned variables
	// whose current domain size is s, maintained by the same incremental
	// updates that keep domSize exact (two counter bumps per size change —
	// anything heavier, like per-variable bucket lists, costs more in the
	// alldifferent loop than pickVar ever saved). pickVar walks bCnt up
	// from the bMin hint to find the smallest populated size, then resolves
	// the degree tie-break by walking the descent's static degree-ranked
	// variable order and returning the first variable of that size — the
	// smallest-domain variable is usually high-degree (that is why the
	// heuristic tie-breaks on degree), so the walk exits within a few
	// entries instead of scanning all n variables per search node (the
	// scan was ~25% of BenchmarkCPThresholdDescent). bMin is a lower
	// bound: size drops below it lower it; pickVar advances it past
	// drained counts.
	bCnt []int32 // per size s in [0, m]: unassigned variables with |dom| = s
	bMin int32

	// Trail arenas. The alldifferent constraint removes one known bit (the
	// depth's assigned instance) from up to n-1 domains per assignment, so
	// those removals are logged as bare variable indices in bitVar, depth
	// d's in slots [d*n, d*n+len), instead of full domain snapshots; only
	// adjacency intersections snapshot domain words. savedAt stamps the
	// epoch (one per assignment) at which a variable's domain was last
	// snapshotted, so each assignment snapshots a variable at most once no
	// matter how many adjacency constraints touch it. An assignment only
	// snapshots neighbours of its variable, so depth d's snapshots fit in
	// slots [d*snapStride, d*snapStride+len) with snapStride the graph's
	// largest degree. At 500 nodes over 1000 instances, on a random graph
	// whose largest degree is about 24, that is about 1.5 MB of domain
	// words where an n-slot stride took 32 MB.
	bitVar     []int32
	bitLen     []int32
	snapStride int
	snapVar    []int32
	snapSize   []int32
	snapWords  []uint64
	snapLen    []int32
	savedAt    []int64
	epoch      int64

	limitHit bool
}

func newEngine(d *descent) *engine {
	n := d.n
	stride := 0
	for _, deg := range d.nodeDeg {
		stride = max(stride, deg)
	}
	e := &engine{
		d:          d,
		domWords:   make([]uint64, n*d.wpd),
		dom:        make([]bitset, n),
		domSize:    make([]int32, n),
		assigned:   make([]int32, n),
		bitVar:     make([]int32, n*n),
		bitLen:     make([]int32, n),
		snapStride: stride,
		snapVar:    make([]int32, n*stride),
		snapSize:   make([]int32, n*stride),
		snapWords:  make([]uint64, n*stride*d.wpd),
		snapLen:    make([]int32, n),
		savedAt:    make([]int64, n),
		bCnt:       make([]int32, d.m+1),
	}
	for i := 0; i < n; i++ {
		e.dom[i] = view(e.domWords[i*d.wpd : (i+1)*d.wpd])
	}
	return e
}

// reset loads the descent's current root domains, clearing any leftover
// search state from the previous check, and rebuilds the bucket index.
func (e *engine) reset() {
	copy(e.domWords, e.d.rootWords)
	copy(e.domSize, e.d.rootSize)
	for i := range e.assigned {
		e.assigned[i] = -1
	}
	for s := range e.bCnt {
		e.bCnt[s] = 0
	}
	e.bMin = int32(e.d.m)
	for i := 0; i < e.d.n; i++ {
		s := e.domSize[i]
		e.bCnt[s]++
		if s < e.bMin {
			e.bMin = s
		}
	}
	e.limitHit = false
}

// bucketMove re-files one unassigned variable's count from size from to
// size to, lowering the minimum hint when to undercuts it.
func (e *engine) bucketMove(from, to int32) {
	e.bCnt[from]--
	e.bCnt[to]++
	if to < e.bMin {
		e.bMin = to
	}
}

// run explores the root variable's candidate values in order and reports
// whether an embedding was found; on success e.assigned holds it.
func (e *engine) run(rootVar int, vals []int32, clock *solver.Clock) bool {
	e.clock = clock
	e.reset()
	if e.clock.Tick() {
		e.limitHit = true
		return false
	}
	for _, v := range vals {
		if e.assign(rootVar, int(v), 0) {
			if e.search(1) {
				return true
			}
			e.undo(rootVar, 0)
		}
		if e.limitHit {
			return false
		}
	}
	return false
}

// search assigns the remaining variables; depth counts assigned variables.
func (e *engine) search(depth int) bool {
	if depth == e.d.n {
		return true
	}
	if e.clock.Tick() {
		e.limitHit = true
		return false
	}
	i := e.pickVar()
	dom := e.dom[i]
	for _, v := range e.d.valOrder {
		j := int(v)
		if !dom.has(j) {
			continue
		}
		if e.assign(i, j, depth) {
			if e.search(depth + 1) {
				return true
			}
			e.undo(i, depth)
		}
		if e.limitHit {
			return false
		}
	}
	return false
}

// pickVar selects the unassigned variable with the smallest domain,
// tie-breaking on higher graph degree then lower index (most constrained
// first) — exactly the choice the pre-index O(n) scan made. The bucket
// index narrows the candidates to the smallest non-empty bucket, so the
// cost per search node is that bucket's population, not n.
func (e *engine) pickVar() int {
	s := e.bMin
	for e.bCnt[s] == 0 {
		s++
	}
	e.bMin = s
	for _, v := range e.d.pickOrder {
		if e.assigned[v] < 0 && e.domSize[v] == s {
			return int(v)
		}
	}
	return -1 // unreachable while any variable is unassigned
}

// snapSave snapshots variable v's domain into depth's snapshot arena slot,
// at most once per assignment epoch; v is a neighbour of the depth's
// variable, so the depth never needs more than snapStride slots.
func (e *engine) snapSave(v, depth int) {
	if e.savedAt[v] == e.epoch {
		return
	}
	e.savedAt[v] = e.epoch
	wpd := e.d.wpd
	slot := depth*e.snapStride + int(e.snapLen[depth])
	e.snapVar[slot] = int32(v)
	e.snapSize[slot] = e.domSize[v]
	copy(e.snapWords[slot*wpd:(slot+1)*wpd], e.domWords[v*wpd:(v+1)*wpd])
	e.snapLen[depth]++
}

// assign maps variable i to instance j and runs forward checking: j leaves
// every other open domain (alldifferent), and unassigned neighbours of i
// shrink to instances adjacent to j in the right weight class and direction.
// It reports whether the assignment survived propagation; a wiped-out domain
// rolls the trail back internally.
func (e *engine) assign(i, j, depth int) bool {
	e.bCnt[e.domSize[i]]-- // i leaves the unassigned pool
	e.assigned[i] = int32(j)
	e.epoch++
	e.bitLen[depth] = 0
	e.snapLen[depth] = 0
	n, wpd := e.d.n, e.d.wpd
	wipe := false

	// Alldifferent: remove j from every open domain. The removal is logged
	// as a bare variable index — undo knows which bit to put back.
	jw, jb := j>>6, uint64(1)<<(uint(j)&63)
	for v := 0; v < n; v++ {
		if v == i || e.assigned[v] >= 0 || e.domWords[v*wpd+jw]&jb == 0 {
			continue
		}
		e.bitVar[depth*n+int(e.bitLen[depth])] = int32(v)
		e.bitLen[depth]++
		e.domWords[v*wpd+jw] &^= jb
		e.domSize[v]--
		e.bucketMove(e.domSize[v]+1, e.domSize[v])
		if e.domSize[v] == 0 {
			wipe = true
			break
		}
	}
	// Adjacency propagation, per edge direction and weight class. j is
	// already gone from every open domain, so intersecting is enough; a
	// domain already inside the allowed set is left untouched (no snapshot).
	if !wipe {
		for k, w := range e.d.g.Out(i) {
			if e.assigned[w] >= 0 {
				continue
			}
			allowed := e.d.adjOut[e.d.outClass[i][k]].row(j)
			nd := e.dom[w]
			if nd.subsetOf(allowed) {
				continue
			}
			e.snapSave(w, depth)
			sz := int32(nd.intersectCount(allowed))
			e.bucketMove(e.domSize[w], sz)
			e.domSize[w] = sz
			if sz == 0 {
				wipe = true
				break
			}
		}
	}
	if !wipe {
		for k, u := range e.d.g.In(i) {
			if e.assigned[u] >= 0 {
				continue
			}
			allowed := e.d.adjIn[e.d.inClass[i][k]].row(j)
			nd := e.dom[u]
			if nd.subsetOf(allowed) {
				continue
			}
			e.snapSave(u, depth)
			sz := int32(nd.intersectCount(allowed))
			e.bucketMove(e.domSize[u], sz)
			e.domSize[u] = sz
			if sz == 0 {
				wipe = true
				break
			}
		}
	}
	if wipe {
		e.undo(i, depth)
		return false
	}
	return true
}

// undo rolls back an assignment and its propagation trail: snapshots are
// restored first (they were taken after the alldifferent removals of the
// same epoch), then the alldifferent bit goes back into every logged domain.
func (e *engine) undo(i, depth int) {
	n, wpd := e.d.n, e.d.wpd
	for k := int(e.snapLen[depth]) - 1; k >= 0; k-- {
		slot := depth*e.snapStride + k
		v := int(e.snapVar[slot])
		copy(e.domWords[v*wpd:(v+1)*wpd], e.snapWords[slot*wpd:(slot+1)*wpd])
		e.bucketMove(e.domSize[v], e.snapSize[slot])
		e.domSize[v] = e.snapSize[slot]
	}
	e.snapLen[depth] = 0
	j := int(e.assigned[i])
	jw, jb := j>>6, uint64(1)<<(uint(j)&63)
	for k := int(e.bitLen[depth]) - 1; k >= 0; k-- {
		v := int(e.bitVar[depth*n+k])
		e.domWords[v*wpd+jw] |= jb
		e.domSize[v]++
		e.bucketMove(e.domSize[v]-1, e.domSize[v])
	}
	e.bitLen[depth] = 0
	e.assigned[i] = -1
	e.bCnt[e.domSize[i]]++ // i rejoins the unassigned pool
	if e.domSize[i] < e.bMin {
		e.bMin = e.domSize[i]
	}
}

// deployment copies the found embedding out of the engine.
func (e *engine) deployment() core.Deployment {
	out := make(core.Deployment, len(e.assigned))
	for i, v := range e.assigned {
		out[i] = int(v)
	}
	return out
}
