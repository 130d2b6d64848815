// Package cluster implements one-dimensional k-means clustering, used by
// ClouDiA to round link costs to cost clusters before solving
// (Sect. 6.3.1). Fewer distinct cost values means fewer CP threshold
// iterations, trading objective precision for search speed (Fig. 6).
//
// KMeans1D first bins its input into log-γ buckets — internal/sketch's
// bucket mapping at a fixed relative error α = 1e-3 — keeping each bucket's
// exact count, Σv and Σv², and then runs an optimal sum-of-squares DP over
// the buckets instead of over every value. A 1000-instance cost matrix's
// ~10⁶ latencies fall into about a thousand buckets. Only the cluster
// boundaries snap to bucket edges: every center is the exact mean of its
// members, and the reported cost is the exact within-cluster sum of
// squares. On EC2-profile matrices of 150 and 300 instances with ±5% link
// noise, that cost is 0.03% above the unquantized optimum at the paper's
// k = 20 and at most 0.19% above it for k from 5 to 40 (the tests bound it
// at 0.5%).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cloudia/internal/sketch"
)

// alpha is the relative error of the buckets KMeans1D bins its input into:
// bucket i holds the values in (γ^(i-1), γ^i] with γ = (1+α)/(1-α), so the
// members of one bucket lie within a factor γ ≈ 1+2α of each other.
const alpha = 1e-3

// choiceCap bounds the DP's choice matrix, (k-1)·buckets int32 entries, at
// 4M (16 MB). Inputs whose buckets would exceed it are re-binned at
// doubled α until they fit. That always ends below α = 0.26: there γ > 1.6,
// and the whole positive float64 range spans fewer than 1,600 buckets, so
// (k-1)·buckets < buckets² < choiceCap.
const choiceCap = 1 << 22

// Result describes a clustering of one-dimensional values.
type Result struct {
	// Centers holds the cluster means in increasing order.
	Centers []float64
	// Cost is the total within-cluster sum of squared deviations.
	Cost float64
}

// KMeans1D clusters xs into at most k clusters, minimizing the within-cluster
// sum of squared deviations over partitions whose boundaries fall on bucket
// edges. If k exceeds the number of occupied buckets, each bucket becomes
// its own cluster. Values at or below sketch.MinIndexable share one zero
// bucket; negative, NaN and infinite values are an error. Bucket sums
// accumulate in input order, so the result is a pure function of xs.
func KMeans1D(xs []float64, k int) (*Result, error) {
	if len(xs) == 0 {
		return nil, errors.New("cluster: no values")
	}
	if k <= 0 {
		return nil, fmt.Errorf("cluster: invalid k=%d", k)
	}
	for a := alpha; ; a *= 2 {
		ps, err := bin(xs, a)
		if err != nil {
			return nil, err
		}
		n := ps.len()
		if kk := min(k, n); (kk-1)*n <= choiceCap {
			return ps.fit(kk), nil
		}
	}
}

// prefixSums holds prefix sums of the per-bucket statistics over the
// occupied buckets in ascending value order, so any run of buckets has O(1)
// weight, Σv and Σv². Index 0 is the empty prefix.
type prefixSums struct {
	pw   []float64 // prefix counts
	pwv  []float64 // prefix Σv
	pwv2 []float64 // prefix Σv²
}

// bin sums xs into log-γ buckets of relative error a, plus the zero bucket,
// and returns the prefix sums over the occupied ones.
func bin(xs []float64, a float64) (*prefixSums, error) {
	logGamma := math.Log((1 + a) / (1 - a))
	lo, hi := math.Inf(1), 0.0 // smallest and largest indexable value
	for _, v := range xs {
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("cluster: invalid value %g", v)
		}
		if v > sketch.MinIndexable {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	// Slot 0 is the zero bucket, slot 1+i the bucket with index base+i.
	base, slots := 0, 1
	if hi > 0 {
		base = sketch.Index(lo, logGamma)
		slots = sketch.Index(hi, logGamma) - base + 2
	}
	w := make([]float64, slots)
	s := make([]float64, slots)
	s2 := make([]float64, slots)
	for _, v := range xs {
		slot := 0
		if v > sketch.MinIndexable {
			slot = 1 + sketch.Index(v, logGamma) - base
		}
		w[slot]++
		s[slot] += v
		s2[slot] += v * v
	}
	ps := &prefixSums{pw: []float64{0}, pwv: []float64{0}, pwv2: []float64{0}}
	for i, c := range w {
		if c > 0 {
			ps.push(c, s[i], s2[i])
		}
	}
	return ps, nil
}

// push appends one bucket with count w, Σv = s and Σv² = s2.
func (ps *prefixSums) push(w, s, s2 float64) {
	n := len(ps.pw) - 1
	ps.pw = append(ps.pw, ps.pw[n]+w)
	ps.pwv = append(ps.pwv, ps.pwv[n]+s)
	ps.pwv2 = append(ps.pwv2, ps.pwv2[n]+s2)
}

// len is the number of buckets.
func (ps *prefixSums) len() int { return len(ps.pw) - 1 }

// cost is the within-cluster sum of squared deviations of buckets [i, j]
// (inclusive): Σv² - (Σv)²/count.
func (ps *prefixSums) cost(i, j int) float64 {
	s := ps.pwv[j+1] - ps.pwv[i]
	c := ps.pwv2[j+1] - ps.pwv2[i] - s*s/(ps.pw[j+1]-ps.pw[i])
	if c < 0 { // numeric noise
		c = 0
	}
	return c
}

// mean is the mean of the values in buckets [i, j] (inclusive).
func (ps *prefixSums) mean(i, j int) float64 {
	return (ps.pwv[j+1] - ps.pwv[i]) / (ps.pw[j+1] - ps.pw[i])
}

// fit optimally clusters the buckets into k <= ps.len() clusters.
func (ps *prefixSums) fit(k int) *Result {
	n := ps.len()
	starts := make([]int, k) // first bucket of each cluster
	switch {
	case k == n:
		for c := range starts {
			starts[c] = c
		}
	case k > 1:
		ps.sweep(starts)
	}
	r := &Result{Centers: make([]float64, k)}
	for c, lo := range starts {
		hi := n - 1
		if c+1 < k {
			hi = starts[c+1] - 1
		}
		r.Centers[c] = ps.mean(lo, hi)
		r.Cost += ps.cost(lo, hi)
	}
	return r
}

// sweep fills the DP layer by layer — layer c at row j is the optimal cost
// of clustering buckets [0, j] into c clusters, the minimum over i of
// layer c-1 at row i-1 plus cost(i, j) — keeping two rolling value layers
// and every layer's argmin row, then backtracks the argmins into starts,
// the first bucket of each of the len(starts) clusters. The choice matrix
// holds (k-1)·n int32, which KMeans1D keeps within choiceCap.
func (ps *prefixSums) sweep(starts []int) {
	k, n := len(starts), ps.len()
	prev, curr := make([]float64, n), make([]float64, n)
	for j := range prev {
		prev[j] = ps.cost(0, j)
	}
	choice := make([]int32, (k-1)*n)
	// Layer 1's argmin is 0 for every row (the single cluster starts at the
	// first bucket), so a zero row is layer 2's Knuth-Yao bound.
	prevArg := make([]int32, n)
	for c := 2; c <= k; c++ {
		curArg := choice[(c-2)*n : (c-1)*n]
		ps.dcLayer(prev, prevArg, curArg, curr, c-1, n-1, c-1, n-1)
		prevArg = curArg
		prev, curr = curr, prev
	}
	// Row j's argmin is where its last cluster starts. Stale entries below
	// each layer's row range are never visited, since starts strictly
	// descend.
	j := n - 1
	for c := k; c >= 2; c-- {
		i := int(choice[(c-2)*n+j])
		starts[c-1] = i
		j = i - 1
	}
}

// dcLayer fills one DP layer's rows [jlo, jhi] into curr and their leftmost
// argmins into curArg, given that those argmins lie in [ilo, ihi], by
// monotone divide and conquer: the interval cost's quadrangle inequality
// makes the leftmost argmin nondecreasing in the row, so solving the middle
// row narrows both halves. Each row's scan is further clipped from below by
// the previous layer's argmin (prevArg, the Knuth-Yao bound: granting one
// more cluster never moves the leftmost optimal last-cluster start left).
// Ties take the leftmost minimizer, matching the textbook DP.
func (ps *prefixSums) dcLayer(prev []float64, prevArg, curArg []int32, curr []float64, jlo, jhi, ilo, ihi int) {
	if jlo > jhi {
		return
	}
	j := (jlo + jhi) / 2
	lo, hi := max(ilo, int(prevArg[j])), min(ihi, j)
	best, bi := math.Inf(1), lo
	for i := lo; i <= hi; i++ {
		if v := prev[i-1] + ps.cost(i, j); v < best {
			best, bi = v, i
		}
	}
	curr[j], curArg[j] = best, int32(bi)
	ps.dcLayer(prev, prevArg, curArg, curr, jlo, j-1, ilo, bi)
	ps.dcLayer(prev, prevArg, curArg, curr, j+1, jhi, bi, ihi)
}

// Assign returns the center of the cluster that value x falls into: the
// cluster whose mean is nearest. Centers must be sorted ascending, as
// produced by KMeans1D.
func (r *Result) Assign(x float64) float64 { return r.Centers[r.assignIndex(x)] }

// assignIndex returns the index in Centers of the cluster Assign puts x in;
// a tie between two centers goes to the lower one.
func (r *Result) assignIndex(x float64) int {
	cs := r.Centers
	// Binary search for the insertion point, then compare neighbours.
	i := sort.SearchFloat64s(cs, x)
	if i == 0 {
		return 0
	}
	if i == len(cs) {
		return len(cs) - 1
	}
	if x-cs[i-1] <= cs[i]-x {
		return i - 1
	}
	return i
}
