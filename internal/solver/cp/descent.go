package cp

import (
	"cmp"
	"math/bits"
	"slices"

	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// descent is the persistent state of one threshold descent, built once per
// Solve call and carried across every feasibility check. It exploits the
// monotonicity of the descent: thresholds only decrease, so the threshold
// graph G_c' is a subgraph of G_c and the root domains only shrink. Instead
// of rebuilding m^2 adjacency bits per weight class at every iteration, the
// descent lists the instance pairs grouped into levels of equal cost, and a
// per-class cursor walks the levels down on each tightening, clearing
// exactly the bits for pairs whose cost falls in (c', c]. Clearing a bit
// commutes, so the order of pairs within a level is immaterial. Instance
// degrees are maintained alongside, so the value-ordering heuristic and the
// root degree filter never re-count bitsets.
type descent struct {
	g    *core.Graph
	n, m int
	wpd  int // words per m-bit instance set

	weights  []float64 // distinct edge weight classes (index = class id)
	loosest  int       // class with the smallest weight (loosest threshold)
	outClass [][]int   // weight class per out-adjacency slot of each node
	inClass  [][]int   // weight class per in-adjacency slot of each node
	nodeDeg  []int     // g.Degree per node, for variable-selection tie-breaks
	// pickOrder holds the variables sorted by (degree descending, index
	// ascending) — the static tie-break order of pickVar: given the
	// smallest populated domain size from the engine's bucket counts, the
	// first variable of that size in this order is exactly the variable
	// the old full scan selected.
	pickOrder []int32

	// The instance pairs as cells i*m+j grouped into ascending cost levels
	// (cluster.Rounded.LevelCells): level l is cells[starts[l]:starts[l+1]].
	// A clustered set holds only class ids, so the descent counting-sorts
	// its own list once, O(m^2), and frees it with itself.
	levels []float64
	cells  []uint32
	starts []uint32
	cursor []int // per class: levels [0, cursor[ci]) are present in adj

	adjOut []bitsetRow // [class]: adjacency rows, adjOut[ci].row(j) = out-neighbours of j
	adjIn  []bitsetRow
	outDeg [][]int32 // [class][instance]: out-degree in the threshold graph
	inDeg  [][]int32

	// Root domains with compatibility filtering; they shrink monotonically
	// across the descent and are copied into each engine per check.
	rootWords []uint64
	root      []bitset
	rootSize  []int32
	degFilter bool

	// Value-ordering heuristic state, refreshed after each tightening:
	// instances sorted by threshold-graph degree in the loosest class,
	// densest first (ties by index for determinism).
	instDeg  []int32
	valOrder []int32
	rootVals []int32 // scratch: current root variable's candidates, in order

	// Degree-filter state. Nodes with equal requirements (out-degree,
	// in-degree, neighbour-degree profile sorted descending) form one
	// group, tested once per instance. An instance's profile is the
	// threshold-graph degrees of its out- and in-neighbours in class 0, and
	// its length is instOut+instIn; the filter compares at most profLen
	// entries of it, profLen the longest node profile, so each refilter
	// keeps only each instance's top profLen entries, in one m x profLen
	// slab. No node profile entry exceeds profCap, so entries are kept
	// capped at it, which decides no comparison differently and lets the
	// collection stop once an instance holds profLen capped entries. All
	// scratch is preallocated: refilter allocates nothing.
	groups  []reqGroup
	profLen int
	profCap int32
	instTop []int32 // [j*profLen, (j+1)*profLen): instance j's top profile entries, descending
	nbrDeg  []int32 // scratch: instOut+instIn per instance in class 0
	live    bitset  // scratch: instances in some root domain
	fail    bitset  // scratch: instances the current group rejects

	eng *engine
}

// bitsetRow is a slab of m fixed-size bitsets backed by one allocation.
type bitsetRow struct {
	words []uint64
	wpd   int
}

func newBitsetRow(m, wpd int) bitsetRow {
	return bitsetRow{words: make([]uint64, m*wpd), wpd: wpd}
}

func (r bitsetRow) row(j int) bitset { return view(r.words[j*r.wpd : (j+1)*r.wpd]) }

// newDescent builds the descent state with the threshold graphs at c = +inf
// (every pair present); the first tighten call walks them down to the first
// threshold. Its one engine is preallocated and reused across checks.
func newDescent(p *solver.Problem, set *cluster.Rounded, degFilter bool) *descent {
	g := p.Graph
	n, m := p.NumNodes(), p.NumInstances()
	d := &descent{
		g: g, n: n, m: m, wpd: wordsPerSet(m),
		levels:    set.Levels(),
		degFilter: degFilter,
	}
	d.cells, d.starts = set.LevelCells()

	d.weights = []float64{1}
	if g.Weighted() {
		d.weights = g.DistinctWeights()
	}
	classOf := make(map[float64]int, len(d.weights))
	for ci, w := range d.weights {
		classOf[w] = ci
		if w < d.weights[d.loosest] {
			d.loosest = ci
		}
	}
	d.outClass = make([][]int, n)
	d.inClass = make([][]int, n)
	d.nodeDeg = make([]int, n)
	d.pickOrder = make([]int32, n)
	for v := 0; v < n; v++ {
		d.pickOrder[v] = int32(v)
		d.nodeDeg[v] = g.Degree(v)
		for _, w := range g.Out(v) {
			d.outClass[v] = append(d.outClass[v], classOf[g.Weight(v, w)])
		}
		for _, u := range g.In(v) {
			d.inClass[v] = append(d.inClass[v], classOf[g.Weight(u, v)])
		}
	}

	slices.SortFunc(d.pickOrder, func(a, b int32) int {
		if d.nodeDeg[a] != d.nodeDeg[b] {
			return d.nodeDeg[b] - d.nodeDeg[a] // higher degree first
		}
		return int(a - b)
	})

	nc := len(d.weights)
	d.cursor = make([]int, nc)
	d.adjOut = make([]bitsetRow, nc)
	d.adjIn = make([]bitsetRow, nc)
	d.outDeg = make([][]int32, nc)
	d.inDeg = make([][]int32, nc)
	for ci := 0; ci < nc; ci++ {
		d.cursor[ci] = len(d.levels)
		d.adjOut[ci] = newBitsetRow(m, d.wpd)
		d.adjIn[ci] = newBitsetRow(m, d.wpd)
		d.outDeg[ci] = make([]int32, m)
		d.inDeg[ci] = make([]int32, m)
		for j := 0; j < m; j++ {
			d.adjOut[ci].row(j).setFirst(m)
			d.adjOut[ci].row(j).clear(j)
			d.adjIn[ci].row(j).setFirst(m)
			d.adjIn[ci].row(j).clear(j)
			d.outDeg[ci][j] = int32(m - 1)
			d.inDeg[ci][j] = int32(m - 1)
		}
	}

	d.rootWords = make([]uint64, n*d.wpd)
	d.root = make([]bitset, n)
	d.rootSize = make([]int32, n)
	for i := 0; i < n; i++ {
		d.root[i] = view(d.rootWords[i*d.wpd : (i+1)*d.wpd])
		d.root[i].setFirst(m)
		d.rootSize[i] = int32(m)
	}

	d.instDeg = make([]int32, m)
	d.valOrder = make([]int32, m)
	d.rootVals = make([]int32, 0, m)

	if degFilter {
		d.groupNodes()
		d.instTop = make([]int32, m*d.profLen)
		d.nbrDeg = make([]int32, m)
		d.live = newBitset(m)
		d.fail = newBitset(m)
	}

	d.eng = newEngine(d)
	d.refreshValueOrder()
	return d
}

// tighten lowers every weight class's threshold graph to threshold c: class
// ci keeps exactly the pairs with cost <= c/weights[ci]. Thresholds must be
// non-increasing across calls; the cursors only ever walk down the levels,
// so the whole descent clears each pair at most once per class — O(m^2)
// total per class, where the old engine paid O(m^2) per class per iteration
// rebuilding the adjacency from scratch.
func (d *descent) tighten(c float64) {
	cleared := false
	levels := d.levels
	m := uint32(d.m)
	for ci, w := range d.weights {
		limit := c / w
		cur := d.cursor[ci]
		adjOut, adjIn := d.adjOut[ci], d.adjIn[ci]
		outDeg, inDeg := d.outDeg[ci], d.inDeg[ci]
		for cur > 0 && levels[cur-1] > limit {
			cur--
			cleared = true // levels are never empty
			for _, cell := range d.cells[d.starts[cur]:d.starts[cur+1]] {
				from, to := cell/m, cell%m
				adjOut.row(int(from)).clear(int(to))
				adjIn.row(int(to)).clear(int(from))
				outDeg[from]--
				inDeg[to]--
			}
		}
		d.cursor[ci] = cur
	}
	if cleared {
		d.refreshValueOrder()
	}
}

// refreshValueOrder recomputes the degree-ranked instance order consumed by
// every search node, so engine.search never sorts candidate values itself.
func (d *descent) refreshValueOrder() {
	outDeg, inDeg := d.outDeg[d.loosest], d.inDeg[d.loosest]
	for j := 0; j < d.m; j++ {
		d.instDeg[j] = outDeg[j] + inDeg[j]
		d.valOrder[j] = int32(j)
	}
	slices.SortFunc(d.valOrder, func(a, b int32) int {
		if d.instDeg[a] != d.instDeg[b] {
			return int(d.instDeg[b] - d.instDeg[a]) // denser first
		}
		return int(a - b)
	})
}

// reqGroup is the nodes sharing one degree-filter requirement: an instance
// can host them only with at least needOut out- and needIn in-neighbours
// and a profile that dominates profile.
type reqGroup struct {
	needOut, needIn int32
	profile         []int32 // neighbours' graph degrees, descending
	nodes           []int32
}

// groupNodes builds the degree filter's requirement groups, in order of
// requirement, profLen, the longest node profile, and profCap, its largest
// entry.
func (d *descent) groupNodes() {
	g := d.g
	reqs := make([]reqGroup, d.n)
	for v := range reqs {
		r := &reqs[v]
		r.needOut, r.needIn = int32(g.OutDegree(v)), int32(g.InDegree(v))
		r.profile = make([]int32, 0, g.Degree(v))
		for _, w := range g.Out(v) {
			r.profile = append(r.profile, int32(g.Degree(w)))
		}
		for _, w := range g.In(v) {
			r.profile = append(r.profile, int32(g.Degree(w)))
		}
		slices.SortFunc(r.profile, func(a, b int32) int { return cmp.Compare(b, a) })
		r.nodes = []int32{int32(v)}
		d.profLen = max(d.profLen, len(r.profile))
		if len(r.profile) > 0 {
			d.profCap = max(d.profCap, r.profile[0])
		}
	}
	byReq := func(a, b *reqGroup) int {
		if c := cmp.Compare(a.needOut, b.needOut); c != 0 {
			return c
		}
		if c := cmp.Compare(a.needIn, b.needIn); c != 0 {
			return c
		}
		return slices.Compare(a.profile, b.profile)
	}
	slices.SortStableFunc(reqs, func(a, b reqGroup) int { return byReq(&a, &b) })
	for i := range reqs {
		if k := len(d.groups) - 1; k >= 0 && byReq(&d.groups[k], &reqs[i]) == 0 {
			d.groups[k].nodes = append(d.groups[k].nodes, reqs[i].nodes[0])
			continue
		}
		d.groups = append(d.groups, reqs[i])
	}
}

// refilter re-runs the root-level degree/neighbourhood compatibility filter
// of Zampelli et al. [70] against the current threshold graph. The filter is
// monotone in the threshold (degrees and profiles only shrink as c drops),
// so it is sound to test only the instances still in each root domain, and
// only those instances' profiles are collected.
func (d *descent) refilter() {
	instOut, instIn := d.outDeg[0], d.inDeg[0]
	for j := range d.nbrDeg {
		d.nbrDeg[j] = instOut[j] + instIn[j]
	}
	live := d.live.words
	clear(live)
	for _, dom := range d.root {
		for wi, w := range dom.words {
			live[wi] |= w
		}
	}
	for wi, w := range live {
		for ; w != 0; w &= w - 1 {
			j := wi<<6 + bits.TrailingZeros64(w)
			top := d.instTop[j*d.profLen : (j+1)*d.profLen]
			kept := d.collectTop(top, d.adjOut[0].row(j), 0)
			d.collectTop(top, d.adjIn[0].row(j), kept)
		}
	}
	fail := d.fail.words
	for gi := range d.groups {
		gr := &d.groups[gi]
		clear(fail)
		for wi := range live {
			w := uint64(0)
			for _, v := range gr.nodes {
				w |= d.root[v].words[wi]
			}
			for ; w != 0; w &= w - 1 {
				j := wi<<6 + bits.TrailingZeros64(w)
				// A node's profile has needOut+needIn entries, so passing
				// the degree tests means instance j's profile, of length
				// instOut+instIn, is at least as long.
				if instOut[j] < gr.needOut || instIn[j] < gr.needIn ||
					!dominates(d.instTop[j*d.profLen:], gr.profile) {
					fail[wi] |= 1 << (uint(j) & 63)
				}
			}
		}
		for _, v := range gr.nodes {
			dom := d.root[v].words
			for wi, f := range fail {
				cut := dom[wi] & f
				dom[wi] &^= cut
				d.rootSize[v] -= int32(bits.OnesCount64(cut))
			}
		}
	}
}

// collectTop merges the class-0 degrees of row's members, capped at
// profCap, into top, which holds its first kept entries sorted descending,
// keeping the len(top) largest; it returns how many entries top now holds.
// It stops early once top is full of capped entries, which no later entry
// can displace.
func (d *descent) collectTop(top []int32, row bitset, kept int) int {
	for wi, w := range row.words {
		for ; w != 0; w &= w - 1 {
			if kept == len(top) && (kept == 0 || top[kept-1] == d.profCap) {
				return kept
			}
			v := min(d.nbrDeg[wi<<6+bits.TrailingZeros64(w)], d.profCap)
			if kept == len(top) {
				if v <= top[kept-1] {
					continue
				}
				kept-- // v displaces the least entry
			}
			p := kept
			for ; p > 0 && top[p-1] < v; p-- {
				top[p] = top[p-1]
			}
			top[p] = v
			kept++
		}
	}
	return kept
}

func (d *descent) anyRootEmpty() bool {
	for i := 0; i < d.n; i++ {
		if d.rootSize[i] == 0 {
			return true
		}
	}
	return false
}

// pickRoot selects the search's root variable: smallest root domain,
// tie-breaking on higher communication-graph degree (most constrained
// first), matching engine.pickVar on the remaining variables.
func (d *descent) pickRoot() int {
	best, bestDeg := -1, -1
	var bestSize int32
	for i := 0; i < d.n; i++ {
		size := d.rootSize[i]
		deg := d.nodeDeg[i]
		if best < 0 || size < bestSize || (size == bestSize && deg > bestDeg) {
			best, bestSize, bestDeg = i, size, deg
		}
	}
	return best
}

// rootValues fills the scratch candidate list for the root variable, in
// value order (threshold-graph degree descending).
func (d *descent) rootValues(rootVar int) []int32 {
	d.rootVals = d.rootVals[:0]
	dom := d.root[rootVar]
	for _, j := range d.valOrder {
		if dom.has(int(j)) {
			d.rootVals = append(d.rootVals, j)
		}
	}
	return d.rootVals
}

// feasible searches for a deployment whose every communication edge e maps to
// a link of weighted cost w(e)*CL <= c, tightening the persistent threshold
// graphs down to c first. Infeasibility ("exhausted") is proven only when the
// search exhausted the root variable's every branch within budget.
func (d *descent) feasible(c float64, clock *solver.Clock) (ok bool, dep core.Deployment, exhausted bool) {
	d.tighten(c)
	if d.degFilter {
		d.refilter()
		if d.anyRootEmpty() {
			return false, nil, true
		}
	}
	rootVar := d.pickRoot()
	vals := d.rootValues(rootVar)
	if len(vals) == 0 {
		return false, nil, true
	}
	if d.eng.run(rootVar, vals, clock) {
		return true, d.eng.deployment(), false
	}
	return false, nil, !d.eng.limitHit
}

// dominates reports whether the instance profile can host the node profile:
// elementwise a[k] >= b[k] over b's length (both sorted descending). The
// caller has checked that a's full profile is at least as long as b's.
func dominates(a, b []int32) bool {
	if len(b) == 0 || a[len(b)-1] >= b[0] {
		return true // a's least compared entry covers b's largest
	}
	for k := range b {
		if a[k] < b[k] {
			return false
		}
	}
	return true
}
