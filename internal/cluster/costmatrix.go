package cluster

import (
	"slices"

	"cloudia/internal/core"
	"cloudia/internal/par"
)

// RoundCostMatrixPairs returns a copy of m whose off-diagonal costs are
// rounded to the centers of a k-clustering of the original cost values, plus
// the instance-pair order sorted ascending by rounded cost. This is the
// preprocessing step the paper applies before handing the matrix to the CP
// or MIP solvers (Sect. 6.3.1): it shrinks the number of distinct cost
// values (and hence CP threshold iterations) at the price of objective
// precision. Cluster assignment is monotone in the original cost, so the
// pair order is derived from one sort of the original values and shared with
// the rounded matrix; the CP solver's incremental threshold graphs consume it
// directly instead of re-sorting m^2 pairs per solve. k <= 0 disables
// clustering and returns m itself — rounded matrices are shared immutable
// snapshots everywhere downstream, so the disabled path is zero-copy;
// callers must not modify the result.
func RoundCostMatrixPairs(m *core.CostMatrix, k int) (*core.CostMatrix, []core.CostPair, error) {
	out, pairs, _, err := RoundCostMatrixPairsResult(m, k)
	return out, pairs, err
}

// RoundCostMatrixPairsResult is RoundCostMatrixPairs exposing the underlying
// clustering as well, so epoch-aware caches can later re-assign changed
// values to the fitted centers without re-running k-means. The Result is nil
// when clustering is disabled (k <= 0 or a sub-2x2 matrix).
func RoundCostMatrixPairsResult(m *core.CostMatrix, k int) (*core.CostMatrix, []core.CostPair, *Result, error) {
	if k <= 0 || m.Size() < 2 {
		return m, m.SortedPairs(), nil, nil
	}
	pairs := m.SortedPairs()
	vals := make([]float64, len(pairs))
	for i, pr := range pairs {
		vals[i] = pr.Cost
	}
	r, err := KMeans1D(vals, k)
	if err != nil {
		return nil, nil, nil, err
	}
	out := core.NewCostMatrix(m.Size())
	// Each pair index appears once, so pair chunks write disjoint matrix
	// cells and disjoint pair entries; Assign is a read-only binary search.
	// The chunked loop is therefore bit-equal to the sequential one.
	par.For(len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := r.Assign(pairs[i].Cost)
			out.Set(int(pairs[i].From), int(pairs[i].To), c)
			pairs[i].Cost = c
		}
	})
	return out, pairs, r, nil
}

// PatchRoundedRows advances a rounded matrix to a new cost-matrix epoch
// where only the given source rows changed: unchanged rows are copied from
// prev, while every off-diagonal entry of a changed row is re-assigned to
// the nearest center of the existing clustering r — the incremental k-means
// reassignment that keeps per-epoch re-rounding O(changed * n * log k)
// instead of a full O(n^2) k-means refit. A nil r means clustering is
// disabled and changed rows take their raw source values. prev is not
// modified.
func PatchRoundedRows(src, prev *core.CostMatrix, r *Result, rows []int) *core.CostMatrix {
	out := prev.Clone()
	n := src.Size()
	// Normalize to a duplicate-free list so chunks of it touch disjoint
	// output rows; re-rounding the changed rows is then row-parallel.
	rs := slices.Clone(rows)
	slices.Sort(rs)
	rs = slices.Compact(rs)
	par.For(len(rs), func(lo, hi int) {
		for _, i := range rs[lo:hi] {
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
	})
	return out
}

// PatchSortedPairs advances a cost-sorted pair list to a new matrix epoch
// where only the given rows of m changed. A row change affects exactly the
// pairs originating at that row, so the changed rows' pairs are rebuilt as
// per-row sorted runs merged into one ascending run (O(n log n) per row plus
// an O(changed*n*log changed) run merge), and that run is merged into the
// output in a single fused pass over prevPairs that skips superseded pairs
// as it goes — no intermediate kept-pair list is materialized, and unbroken
// spans of kept pairs are copied in bulk rather than element-at-a-time.
// Total O(n^2 + changed * n * log(changed * n)) with one output-sized
// allocation, against the O(n^2 log n) full re-sort (and against the older
// delta path's second output-sized intermediate). Ties between kept and
// rebuilt pairs keep the kept pair first, so the output is deterministic
// (though tie order may differ from a full SortedPairs re-sort; consumers
// only require ascending cost). prevPairs is not modified.
func PatchSortedPairs(m *core.CostMatrix, prevPairs []core.CostPair, rows []int) []core.CostPair {
	n := m.Size()
	// Normalize rows ascending and duplicate-free: run construction order
	// (and therefore tie order among rebuilt pairs) must not depend on the
	// caller's row order.
	rs := slices.Clone(rows)
	slices.Sort(rs)
	rs = slices.Compact(rs)

	changed := make([]bool, n)
	for _, i := range rs {
		changed[i] = true
	}
	fresh := freshSortedRuns(m, rs)

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

// freshSortedRuns rebuilds the given (ascending, duplicate-free) rows' pairs
// from m as one cost-ascending run: each row's n-1 pairs are materialized
// into its own fixed-stride range and sorted independently — row-parallel —
// then equal-length row runs are merged bottom-up, left run first on ties
// (core.MergeSortedPairRuns, shared with the full-matrix SortedPairs build)
// — so equal costs keep (row, To) order exactly as the previous full-list
// stable sort produced.
func freshSortedRuns(m *core.CostMatrix, rows []int) []core.CostPair {
	n := m.Size()
	if len(rows) == 0 || n < 2 {
		return nil
	}
	per := n - 1
	a := make([]core.CostPair, len(rows)*per)
	par.For(len(rows), func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			i := rows[ri]
			run := a[ri*per : (ri+1)*per]
			row := m.Row(i)
			w := 0
			for j := 0; j < n; j++ {
				if i != j {
					run[w] = core.CostPair{From: int32(i), To: int32(j), Cost: row[j]}
					w++
				}
			}
			core.SortPairRun(run)
		}
	})
	return core.MergeSortedPairRuns(a, per)
}
