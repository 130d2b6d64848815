package cluster

import (
	"fmt"
	"math"
	"slices"

	"cloudia/internal/core"
	"cloudia/internal/sketch"
)

// Rounded is a cost matrix rounded to the centers of a k-clustering of its
// off-diagonal values (Sect. 6.3.1), held compactly. Clustered (k > 0),
// each cell holds a one-byte class id, an index into the fit's centers, and
// nothing else per pair: about 1 byte per pair. The rounded float64
// matrix, the cost-sorted CostPair list and the cells grouped by level
// exist only as views built on demand (Matrix, CostPairs, LevelCells).
// Unclustered (k <= 0), the search matrix is the original one, shared
// without a copy, and the set keeps its cells sorted by (cost, index),
// since that sort is the costly part of building it.
//
// Either way the cells form levels: runs of equal rounded cost, ascending.
// CP's descent clears whole levels as its threshold drops, and the level
// values are its threshold ladder. A Rounded is immutable and safe for
// concurrent reads.
type Rounded struct {
	n   int
	raw *core.CostMatrix // unclustered: the search matrix itself
	fit *Result          // clustered: the clustering; nil when unclustered

	// Clustered: the class id (index into fit.Centers) of every cell,
	// row-major, in ids, or in wide when there are more than 256 classes.
	// Diagonal cells are never read.
	ids  []uint8
	wide []uint16

	pairs  []uint32  // unclustered: off-diagonal cells i*n+j, ascending by (cost, index)
	levels []float64 // ascending distinct rounded costs of the non-empty levels
	starts []uint32  // level l's cells are LevelCells' cells[starts[l]:starts[l+1]]
}

// Round rounds m's off-diagonal costs to the centers of a KMeans1D
// k-clustering of them; k <= 0 (or a matrix under 2x2) disables clustering
// and the set searches m itself.
//
// The clustered build never sorts the pairs as a whole. The off-diagonal
// values are counting-sorted into KMeans1D's own log-γ buckets and sorted
// within each bucket, which yields exactly the ascending sequence a global
// sort would, so the fit is the one KMeans1D gives on sorted input. Each
// cell then takes its class id from Result.Assign's center choice, and the
// classes are counted into levels.
func Round(m *core.CostMatrix, k int) (*Rounded, error) {
	n := m.Size()
	if n > 1<<16 {
		return nil, fmt.Errorf("cluster: %d instances exceed the rounded set's %d", n, 1<<16)
	}
	if k <= 0 || n < 2 {
		r := &Rounded{n: n, raw: m}
		r.sortCells(m)
		return r, nil
	}
	r := &Rounded{n: n}
	slot := make([]uint32, n*(n-1))
	bounds, err := bucketSlots(m, slot)
	if err != nil {
		return nil, err
	}
	vals, bucketed := sortedValues(m, slot, bounds)
	if r.fit, err = KMeans1D(vals, k); err != nil {
		return nil, err
	}
	// Assign is monotone, so a bucket whose smallest and largest values
	// share a class puts all its values there: most cells read their class
	// from their bucket, and only the few buckets a class edge cuts search.
	slotClass := make([]int32, len(bounds)-1)
	for s := range slotClass {
		slotClass[s] = -1
		if lo, hi := bounds[s], bounds[s+1]; bucketed && lo < hi {
			if c := r.fit.assignIndex(vals[lo]); c == r.fit.assignIndex(vals[hi-1]) {
				slotClass[s] = int32(c)
			}
		}
	}
	r.classify(m, slot, slotClass)
	return r, nil
}

// bucketSlots writes the KMeans1D bucket slot of every off-diagonal value of
// m, in row-major order, into slot (slot 0 is the zero bucket, slot 1+i the
// i-th log-γ bucket from the smallest occupied one up), and returns the
// buckets' start offsets in that ascending order, one past the last
// included. Values that are negative, NaN or infinite are an error, as in
// KMeans1D.
func bucketSlots(m *core.CostMatrix, slot []uint32) ([]int, error) {
	n := m.Size()
	logGamma := math.Log((1 + alpha) / (1 - alpha))
	lo, hi := math.Inf(1), 0.0 // smallest and largest indexable value
	for i := 0; i < n; i++ {
		for j, v := range m.Row(i) {
			if j == i {
				continue
			}
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("cluster: invalid value %g", v)
			}
			if v > sketch.MinIndexable {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
	}
	base, slots := 0, 1
	if hi > 0 {
		base = sketch.Index(lo, logGamma)
		slots = sketch.Index(hi, logGamma) - base + 2
	}
	w := 0
	for i := 0; i < n; i++ {
		for j, v := range m.Row(i) {
			if j == i {
				continue
			}
			s := 0
			if v > sketch.MinIndexable {
				s = 1 + sketch.Index(v, logGamma) - base
			}
			slot[w] = uint32(s)
			w++
		}
	}
	bounds := make([]int, slots+1)
	for _, s := range slot {
		bounds[s+1]++
	}
	for s := 1; s <= slots; s++ {
		bounds[s] += bounds[s-1]
	}
	return bounds, nil
}

// sortedValues returns m's off-diagonal values in ascending order, given
// their bucket slots and the buckets' start offsets: a counting sort into
// the buckets, then a sort within each. Buckets are ordered value ranges,
// so the result is the globally sorted sequence. Should the floating-point
// bucket index ever misorder two values across an edge, a full sort
// restores the order, so the output is sorted unconditionally; bucketed
// reports whether bucket s still spans vals[bounds[s]:bounds[s+1]].
func sortedValues(m *core.CostMatrix, slot []uint32, bounds []int) (vals []float64, bucketed bool) {
	n := m.Size()
	vals = make([]float64, len(slot))
	next := slices.Clone(bounds[:len(bounds)-1])
	p := 0
	for i := 0; i < n; i++ {
		for j, v := range m.Row(i) {
			if j != i {
				vals[next[slot[p]]] = v
				next[slot[p]]++
				p++
			}
		}
	}
	for s := 0; s+1 < len(bounds); s++ {
		slices.Sort(vals[bounds[s]:bounds[s+1]])
	}
	if !slices.IsSorted(vals) {
		slices.Sort(vals)
		return vals, false
	}
	return vals, true
}

// sortCells lists the off-diagonal cells in core.CostMatrix.SortedPairs's
// (cost, row, column) order and groups runs of equal cost into levels.
func (r *Rounded) sortCells(m *core.CostMatrix) {
	sorted := m.SortedPairs()
	r.pairs = make([]uint32, len(sorted))
	levels := 0
	for p, pr := range sorted {
		r.pairs[p] = uint32(int(pr.From)*r.n + int(pr.To))
		if p == 0 || pr.Cost != sorted[p-1].Cost {
			levels++
		}
	}
	r.levels = make([]float64, 0, levels)
	r.starts = make([]uint32, 0, levels+1)
	for p, pr := range sorted {
		if p == 0 || pr.Cost != sorted[p-1].Cost {
			r.levels = append(r.levels, pr.Cost)
			r.starts = append(r.starts, uint32(p))
		}
	}
	r.starts = append(r.starts, uint32(len(sorted)))
}

// classify gives every cell its class id and counts the classes into
// levels. slot holds the off-diagonal cells' bucket slots in row-major
// order; slotClass is the class of every value in a bucket, or -1 where
// Assign decides. Empty classes make no level; adjacent classes with equal
// centers share one.
func (r *Rounded) classify(m *core.CostMatrix, slot []uint32, slotClass []int32) {
	n, centers := r.n, r.fit.Centers
	if len(centers) <= 1<<8 {
		r.ids = make([]uint8, n*n)
	} else {
		r.wide = make([]uint16, n*n)
	}
	count := make([]uint32, len(centers))
	w := 0
	for i := 0; i < n; i++ {
		for j, v := range m.Row(i) {
			if j == i {
				continue
			}
			c := int(slotClass[slot[w]])
			w++
			if c < 0 {
				c = r.fit.assignIndex(v)
			}
			count[c]++
			if r.ids != nil {
				r.ids[i*n+j] = uint8(c)
			} else {
				r.wide[i*n+j] = uint16(c)
			}
		}
	}
	at := uint32(0)
	for c, cnt := range count {
		if cnt == 0 {
			continue // empty class
		}
		if l := len(r.levels); l == 0 || r.levels[l-1] != centers[c] {
			r.levels = append(r.levels, centers[c])
			r.starts = append(r.starts, at)
		} // else the same value as the previous class: one level
		at += cnt
	}
	r.starts = append(r.starts, at)
}

// classCells counting-sorts the off-diagonal cells of an n x n id matrix by
// class into a fresh list, ascending by (class, index).
func classCells[T uint8 | uint16](ids []T, n, classes int) []uint32 {
	next := make([]uint32, classes)
	for i := 0; i < n; i++ {
		for j, c := range ids[i*n : (i+1)*n] {
			if j != i {
				next[c]++
			}
		}
	}
	at := uint32(0)
	for c, cnt := range next {
		next[c] = at
		at += cnt
	}
	cells := make([]uint32, at)
	for i := 0; i < n; i++ {
		for j, c := range ids[i*n : (i+1)*n] {
			if j != i {
				cells[next[c]] = uint32(i*n + j)
				next[c]++
			}
		}
	}
	return cells
}

// class returns a clustered cell's class id.
func (r *Rounded) class(cell int) int {
	if r.ids != nil {
		return int(r.ids[cell])
	}
	return int(r.wide[cell])
}

// Fit returns the clustering the set rounds to, nil when unclustered.
func (r *Rounded) Fit() *Result { return r.fit }

// At returns the rounded cost of link (i, j); the diagonal is 0 when
// clustered and the original matrix's otherwise.
func (r *Rounded) At(i, j int) float64 {
	switch {
	case r.raw != nil:
		return r.raw.At(i, j)
	case i == j:
		return 0
	}
	return r.fit.Centers[r.class(i*r.n+j)]
}

// Levels returns the ascending distinct rounded costs, one per level: the
// CP threshold ladder. Shared; callers must not modify it.
func (r *Rounded) Levels() []float64 { return r.levels }

// LevelCells returns every off-diagonal cell as an index i*n+j, grouped by
// level: level l's cells are cells[starts[l]:starts[l+1]]. Clustered, the
// list is counting-sorted from the class ids on every call, ascending by
// (class, index), O(n^2), and belongs to the caller: 4 bytes per pair that
// the set itself does not hold. Unclustered, it is the set's own list in
// (cost, index) order. starts, and the unclustered list, are shared;
// callers must not modify them.
func (r *Rounded) LevelCells() (cells, starts []uint32) {
	switch {
	case r.raw != nil:
		return r.pairs, r.starts
	case r.ids != nil:
		return classCells(r.ids, r.n, len(r.fit.Centers)), r.starts
	}
	return classCells(r.wide, r.n, len(r.fit.Centers)), r.starts
}

// LongestLink is core.LongestLink of d under the rounded matrix, computed
// without building it.
func (r *Rounded) LongestLink(d core.Deployment, g *core.Graph) float64 {
	if r.raw != nil {
		return core.LongestLink(d, g, r.raw)
	}
	worst := 0.0
	weighted := g.Weighted()
	for k, e := range g.Edges() {
		c := r.At(d[e.From], d[e.To])
		if weighted {
			c = g.EdgeWeight(k) * c
		}
		if c > worst {
			worst = c
		}
	}
	return worst
}

// Matrix returns the rounded matrix: the original one when unclustered,
// else a fresh matrix with every off-diagonal cell at its center and a
// zero diagonal.
func (r *Rounded) Matrix() *core.CostMatrix {
	if r.raw != nil {
		return r.raw
	}
	out := core.NewCostMatrix(r.n)
	for i := 0; i < r.n; i++ {
		for j := 0; j < r.n; j++ {
			if j != i {
				out.Set(i, j, r.At(i, j))
			}
		}
	}
	return out
}

// CostPairs returns a fresh list of every off-diagonal pair with its rounded
// cost, ascending by cost: in LevelCells order, so unclustered it is
// core.CostMatrix.SortedPairs's (cost, row, column) order, and clustered
// ascending by (class, row, column).
func (r *Rounded) CostPairs() []core.CostPair {
	cells, _ := r.LevelCells()
	out := make([]core.CostPair, len(cells))
	for p, cell := range cells {
		i, j := int(cell)/r.n, int(cell)%r.n
		out[p] = core.CostPair{From: int32(i), To: int32(j), Cost: r.At(i, j)}
	}
	return out
}

// Bytes reports the memory the set holds beyond a shared original matrix:
// clustered, a class id per cell (about 1 MB at n = 1000) plus the levels
// and centers; unclustered, a uint32 per off-diagonal cell.
func (r *Rounded) Bytes() int64 {
	b := int64(len(r.ids)) + 2*int64(len(r.wide)) + 4*int64(len(r.pairs)) +
		8*int64(len(r.levels)) + 4*int64(len(r.starts))
	if r.fit != nil {
		b += 8 * int64(len(r.fit.Centers))
	}
	return b
}

// RoundCostMatrixPairsResult returns m rounded to the centers of a
// k-clustering of its off-diagonal costs, every off-diagonal pair with its
// rounded cost ascending, and the clustering itself, so PatchRoundedRows can
// later re-assign changed values to the fitted centers without re-running
// k-means. These are Round's Matrix and CostPairs views; k <= 0 disables
// clustering and returns m itself. The Result is nil when clustering is
// disabled (k <= 0 or a sub-2x2 matrix). Callers must not modify the result.
func RoundCostMatrixPairsResult(m *core.CostMatrix, k int) (*core.CostMatrix, []core.CostPair, *Result, error) {
	r, err := Round(m, k)
	if err != nil {
		return nil, nil, nil, err
	}
	return r.Matrix(), r.CostPairs(), r.fit, nil
}

// PatchRoundedRows advances a rounded matrix to a new cost-matrix epoch
// where only the given source rows changed: unchanged rows are copied from
// prev, while every off-diagonal entry of a changed row is re-assigned to
// the nearest center of the existing clustering r — the incremental k-means
// reassignment that keeps per-epoch re-rounding O(changed * n * log k)
// instead of a full O(n^2) k-means refit. A nil r means clustering is
// disabled and changed rows take their raw source values. prev is not
// modified. The advising pipeline refits every epoch instead; this and
// PatchSortedPairs remain for cloudia-perf's cli-stream patch probes.
func PatchRoundedRows(src, prev *core.CostMatrix, r *Result, rows []int) *core.CostMatrix {
	out := prev.Clone()
	n := src.Size()
	for _, i := range rows {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := src.At(i, j)
			if r != nil {
				v = r.Assign(v)
			}
			out.Set(i, j, v)
		}
	}
	return out
}

// PatchSortedPairs advances a cost-sorted pair list to a new matrix epoch
// where only the given rows of m changed. A row change affects exactly the
// pairs originating at that row, so the changed rows' pairs are rebuilt and
// sorted into one ascending run (O(changed*n*log(changed*n))), and that run
// is merged into the output in a single fused pass over prevPairs that
// skips superseded pairs as it goes — no intermediate kept-pair list is
// materialized, and unbroken spans of kept pairs are copied in bulk rather
// than element-at-a-time.
// Total O(n^2 + changed * n * log(changed * n)) with one output-sized
// allocation, against the O(n^2 log n) full re-sort (and against the older
// delta path's second output-sized intermediate). Ties between kept and
// rebuilt pairs keep the kept pair first, so the output is deterministic
// (though tie order may differ from a full SortedPairs re-sort; consumers
// only require ascending cost). prevPairs is not modified.
func PatchSortedPairs(m *core.CostMatrix, prevPairs []core.CostPair, rows []int) []core.CostPair {
	n := m.Size()
	// Normalize rows duplicate-free: a repeated row must not rebuild its
	// pairs twice.
	rs := slices.Clone(rows)
	slices.Sort(rs)
	rs = slices.Compact(rs)

	changed := make([]bool, n)
	for _, i := range rs {
		changed[i] = true
	}
	fresh := freshSortedPairs(m, rs)

	out := make([]core.CostPair, 0, len(prevPairs))
	i, j := 0, 0
	for i < len(prevPairs) {
		pr := prevPairs[i]
		if changed[pr.From] {
			i++
			continue
		}
		if j < len(fresh) && fresh[j].Cost < pr.Cost {
			out = append(out, fresh[j])
			j++
			continue
		}
		// Copy the longest span of kept pairs sorting at or before the next
		// rebuilt pair in one append.
		s := i
		for i < len(prevPairs) && !changed[prevPairs[i].From] &&
			(j >= len(fresh) || prevPairs[i].Cost <= fresh[j].Cost) {
			i++
		}
		out = append(out, prevPairs[s:i]...)
	}
	return append(out, fresh[j:]...)
}

// freshSortedPairs rebuilds the given (duplicate-free) rows' pairs from m,
// sorted by (cost, row, column): the order a stable cost sort of the rows'
// pairs in row-major order gives.
func freshSortedPairs(m *core.CostMatrix, rows []int) []core.CostPair {
	n := m.Size()
	if len(rows) == 0 || n < 2 {
		return nil
	}
	a := make([]core.CostPair, 0, len(rows)*(n-1))
	for _, i := range rows {
		for j, v := range m.Row(i) {
			if i != j {
				a = append(a, core.CostPair{From: int32(i), To: int32(j), Cost: v})
			}
		}
	}
	core.SortPairs(a)
	return a
}
