package cp

import (
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
// rounded set groups the instance pairs into levels of equal cost, and a
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

	set    *cluster.Rounded // the instance pairs, grouped into ascending cost levels
	cursor []int            // per class: levels [0, cursor[ci]) are present in adj

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

	// Degree-filter profiles. Node profiles depend only on the communication
	// graph and are computed once; instance profiles are rebuilt per
	// tightening into reused rows, sorted by a shared counting buffer —
	// profile entries are threshold-graph degrees in [0, 2m), and the
	// comparison sorts here used to eat ~20% of a whole threshold descent.
	nodeProfile [][]int32
	instProfile [][]int32
	countBuf    []int32

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
		set:       set,
		degFilter: degFilter,
	}

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
		d.cursor[ci] = len(set.Levels())
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
		d.nodeProfile = make([][]int32, n)
		for i := 0; i < n; i++ {
			var prof []int32
			for _, w := range g.Out(i) {
				prof = append(prof, int32(g.Degree(w)))
			}
			for _, w := range g.In(i) {
				prof = append(prof, int32(g.Degree(w)))
			}
			sortDesc(prof)
			d.nodeProfile[i] = prof
		}
		d.instProfile = make([][]int32, m)
		d.countBuf = make([]int32, 2*m)
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
	levels := d.set.Levels()
	m := uint32(d.m)
	for ci, w := range d.weights {
		limit := c / w
		cur := d.cursor[ci]
		adjOut, adjIn := d.adjOut[ci], d.adjIn[ci]
		outDeg, inDeg := d.outDeg[ci], d.inDeg[ci]
		for cur > 0 && levels[cur-1] > limit {
			cur--
			cleared = true // levels are never empty
			for _, cell := range d.set.LevelPairs(cur) {
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

// refilter re-runs the root-level degree/neighbourhood compatibility filter
// of Zampelli et al. [70] against the current threshold graph. The filter is
// monotone in the threshold (degrees and profiles only shrink as c drops),
// so it is sound to test only the instances still in each root domain.
func (d *descent) refilter() {
	instOut, instIn := d.outDeg[0], d.inDeg[0]
	for j := 0; j < d.m; j++ {
		prof := d.instProfile[j][:0]
		collect := func(k int) bool {
			prof = append(prof, instOut[k]+instIn[k])
			return true
		}
		d.adjOut[0].row(j).forEach(collect)
		d.adjIn[0].row(j).forEach(collect)
		d.sortProfileDesc(prof)
		d.instProfile[j] = prof
	}
	for i := 0; i < d.n; i++ {
		needOut := int32(d.g.OutDegree(i))
		needIn := int32(d.g.InDegree(i))
		dom := d.root[i]
		dom.forEach(func(j int) bool {
			if instOut[j] < needOut || instIn[j] < needIn ||
				!dominates(d.instProfile[j], d.nodeProfile[i]) {
				dom.clear(j)
				d.rootSize[i]--
			}
			return true
		})
	}
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

// sortDesc sorts a profile descending in place.
func sortDesc(p []int32) {
	slices.SortFunc(p, func(a, b int32) int { return int(b - a) })
}

// sortProfileDesc counting-sorts a degree profile descending: entries are
// threshold-graph degrees in [0, 2m), so bucketing beats a comparison sort
// for the per-tightening instance-profile rebuilds. The shared buffer is
// zeroed as it drains, keeping each call O(len(p) + len(countBuf)).
func (d *descent) sortProfileDesc(p []int32) {
	buf := d.countBuf
	for _, v := range p {
		buf[v]++
	}
	idx := 0
	for v := len(buf) - 1; v >= 0; v-- {
		for c := buf[v]; c > 0; c-- {
			p[idx] = int32(v)
			idx++
		}
		buf[v] = 0
	}
}

// dominates reports whether the instance profile can host the node profile:
// elementwise a[k] >= b[k] over b's length (both sorted descending).
func dominates(a, b []int32) bool {
	if len(a) < len(b) {
		return false
	}
	for k := range b {
		if a[k] < b[k] {
			return false
		}
	}
	return true
}
