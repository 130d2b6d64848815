// Package sketch implements streaming quantile sketches for per-link
// latency tails: DDSketch-style log-bucketed histograms with a configurable
// relative-error guarantee. measure.Stream keeps one Set, a sketch per
// ordered instance pair, so epochs can publish p95/p99 matrices while the
// measurement is still in flight, the way the PV-storage work in PAPERS.md
// keeps compact summaries of high-rate streams instead of raw samples.
//
// DDSketch was chosen over t-digest deliberately: a link's logical state is
// a zero count plus a multiset of integer bucket indices, and a multiset
// does not remember the order its elements arrived in, so the state after a
// stream of Adds is bit-identical whatever order the samples arrived in
// (TestAddOrderIndependent pins this). That makes the sketch safe for the
// repo's determinism contract. A t-digest's centroids depend on insertion
// order, which would make epoch content a function of how samples
// interleave.
//
// Accuracy guarantee: for every recorded value v above the indexable
// minimum, the bucket representative r satisfies |r - v| <= Alpha * v. A
// quantile query returns the representative of the bucket holding the
// nearest-rank sample, so Quantile(q) is within relative error Alpha of the
// exact q-quantile sample. Against a linearly interpolated percentile
// (stats.Percentile) the estimate lies in [lo*(1-Alpha), hi*(1+Alpha)],
// where lo and hi are the order statistics bracketing the interpolation
// point — the bound measure's TestTailMatrixWithinBound asserts.
//
// Size: a Set holds no heap object per link. Each link is a 4-byte offset
// plus a run of int32 words in a slab shared with 31 neighbouring links: its
// samples' bucket indices, sorted, or dense bucket counts once those are
// fewer words. The CLI's streaming measurement of 330 instances ends with
// about 8.5 samples in 5 buckets per link, and its Set holds 40 to 41 bytes
// per link.
package sketch

import (
	"fmt"
	"math"
	"slices"
)

// DefaultAlpha is the relative-error bound used when a caller does not pick
// one: 1% relative error keeps p99 estimates well inside measurement noise.
const DefaultAlpha = 0.01

// MinAlpha is the smallest relative-error bound a Set accepts: below it the
// bucket index of the largest float64 no longer fits an int32.
const MinAlpha = 1e-6

// MinIndexable is the smallest value the log-bucket index covers; values in
// [0, MinIndexable] (sub-nanosecond RTTs in this repo's millisecond unit)
// collapse into a dedicated zero bucket whose representative is 0.
const MinIndexable = 1e-9

// Index maps a finite value above MinIndexable to its log-bucket index
// under the bucket ratio gamma = (1+alpha)/(1-alpha), given as
// logGamma = log(gamma): gamma^(i-1) < v <= gamma^i. The mapping is a pure
// function of (v, alpha).
func Index(v, logGamma float64) int {
	return int(math.Ceil(math.Log(v) / logGamma))
}

// pageShift sets how many consecutive links share one slab: 1<<pageShift.
// A sample that lengthens a link shifts the rest of its slab, so the slab
// is kept small; the slice header it costs is shared by all its links.
const pageShift = 5

const (
	// denseMark is the first word of a dense link. A sparse link never
	// starts with it: its smallest word is zeroIndex.
	denseMark = math.MinInt32
	// zeroIndex stands for a zero-bucket sample in a sparse link; it sorts
	// below every bucket index.
	zeroIndex = math.MinInt32 + 1
	// denseHead is a dense link's header: denseMark, total, zero count and
	// the index of its first bucket. Its bucket counts follow.
	denseHead = 4
)

// Set is a quantile sketch for each of a fixed number of links, numbered
// from 0. The zero value is not usable; construct with NewSet. A Set is not
// safe for concurrent use — the streaming measurement owns it from a single
// goroutine and publishes immutable matrices, never the sketches.
//
// A link's state is its zero count plus the multiset of its samples'
// bucket indices, held in one of two layouts, whichever takes fewer words
// (sparse on a tie):
//
//   - sparse: one word per sample, the bucket indices in ascending order,
//     zero-bucket samples as zeroIndex first;
//   - dense: denseMark, total, zero count, first bucket index b, then the
//     count of each bucket from b to the highest occupied one.
//
// The layout is a function of the state alone, so equal states are equal
// words. Counts are read as uint32; a link holds at most MaxUint32 samples.
type Set struct {
	alpha    float64
	gamma    float64
	logGamma float64 // cached log(gamma), the per-Add divisor
	// top is the bucket of +Inf, one above the largest float64's. Its
	// representative is +Inf.
	top int32

	// off[k] is where link k's words start in its slab; they end where
	// link k+1's start, or at the slab's end for a slab's last link.
	off   []uint32
	pages [][]int32
	// scratch holds a link's new words while it changes layout.
	scratch []int32
}

// NewSet returns a set of empty sketches for links 0..links-1 with the
// given relative-error bound alpha in [MinAlpha, 1); alpha <= 0 selects
// DefaultAlpha.
func NewSet(alpha float64, links int) *Set {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if alpha < MinAlpha || alpha >= 1 {
		panic(fmt.Sprintf("sketch: relative error bound %g outside [%g, 1)", alpha, MinAlpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	logGamma := math.Log(gamma)
	return &Set{
		alpha: alpha, gamma: gamma, logGamma: logGamma,
		top:   int32(Index(math.MaxFloat64, logGamma) + 1),
		off:   make([]uint32, links),
		pages: make([][]int32, (links+1<<pageShift-1)>>pageShift),
	}
}

// Alpha reports the sketches' relative-error bound.
func (s *Set) Alpha() float64 { return s.alpha }

// Bytes reports the set's heap footprint: offsets, slab headers and slab
// capacities, and the layout-change scratch. It is a pure function of the
// sequence of Adds.
func (s *Set) Bytes() int {
	const sliceHeader = 24
	b := 4*cap(s.off) + sliceHeader*cap(s.pages) + 4*cap(s.scratch)
	for _, p := range s.pages {
		b += 4 * cap(p)
	}
	return b
}

// link returns link k's slab and the bounds [lo, hi) of its words there.
func (s *Set) link(k int) (page []int32, lo, hi int) {
	page = s.pages[k>>pageShift]
	lo, hi = int(s.off[k]), len(page)
	if next := k + 1; next&(1<<pageShift-1) != 0 && next < len(s.off) {
		hi = int(s.off[next])
	}
	return page, lo, hi
}

// Count reports the number of values recorded for link k.
func (s *Set) Count(k int) int {
	page, lo, hi := s.link(k)
	if hi > lo && page[lo] == denseMark {
		return int(uint32(page[lo+1]))
	}
	return hi - lo
}

// bucket maps a value to its bucket: zeroIndex at or below MinIndexable
// (negatives and NaN included: link latencies cannot be negative, and a
// conservative 0 beats poisoning the log index with NaN), top for +Inf.
func (s *Set) bucket(v float64) int32 {
	switch {
	case v > math.MaxFloat64:
		return s.top
	case v > MinIndexable:
		return int32(Index(v, s.logGamma))
	}
	return zeroIndex
}

// representative returns the value every sample in bucket i reports as:
// 0 for the zero bucket, +Inf for top, else 2*gamma^i/(gamma+1), the point
// whose relative distance to both bucket edges is exactly alpha.
func (s *Set) representative(i int32) float64 {
	switch i {
	case zeroIndex:
		return 0
	case s.top:
		return math.Inf(1)
	}
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Add records one value for link k.
func (s *Set) Add(k int, v float64) {
	i := s.bucket(v)
	page, lo, hi := s.link(k)
	if hi > lo && page[lo] == denseMark {
		s.addDense(k, page, lo, hi, i)
		return
	}
	w := page[lo:hi]
	if uint64(len(w)) >= math.MaxUint32 {
		panic("sketch: link count overflows uint32")
	}
	// The bucket span after the Add decides the layout.
	first, last := i, i
	if nz := upper(w, zeroIndex); nz < len(w) { // past the zero-bucket samples
		first, last = w[nz], w[len(w)-1]
		if i != zeroIndex {
			first, last = min(first, i), max(last, i)
		}
	}
	if denseLen(first, last) < len(w)+1 {
		s.toDense(k, lo, hi, i, first, last)
		return
	}
	at := lo + upper(w, i)
	page = s.resize(k, at, 1)
	page[at] = i
}

// upper returns the position after the last word in w at or below i.
func upper(w []int32, i int32) int {
	n, _ := slices.BinarySearch(w, i+1)
	return n
}

// denseLen is the dense layout's word count for buckets first..last, or
// for no bucket when first is zeroIndex.
func denseLen(first, last int32) int {
	if first == zeroIndex {
		return denseHead
	}
	return denseHead + int(last-first) + 1
}

// toDense rewrites sparse link k, words [lo, hi), in the dense layout over
// buckets first..last with the new bucket i counted.
func (s *Set) toDense(k, lo, hi int, i, first, last int32) {
	n := denseLen(first, last)
	d := slices.Grow(s.scratch[:0], n)[:n]
	clear(d)
	d[0], d[1] = denseMark, int32(hi-lo+1)
	if first != zeroIndex {
		d[3] = first
	}
	count := func(x int32) {
		if x == zeroIndex {
			d[2]++
		} else {
			d[denseHead+x-first]++
		}
	}
	for _, x := range s.pages[k>>pageShift][lo:hi] {
		count(x)
	}
	count(i)
	s.scratch = d
	s.replace(k, lo, hi, d)
}

// addDense counts bucket i in dense link k, words [lo, hi): in place, by
// widening the bucket run, or, once the run would take as many words as
// the samples, by going back to the sparse layout.
func (s *Set) addDense(k int, page []int32, lo, hi int, i int32) {
	total := uint32(page[lo+1]) + 1
	if total == 0 {
		panic("sketch: link count overflows uint32")
	}
	page[lo+1] = int32(total)
	if i == zeroIndex {
		page[lo+2]++
		return
	}
	base, width := page[lo+3], int32(hi-lo-denseHead)
	if width > 0 && i >= base && i < base+width {
		page[lo+denseHead+int(i-base)]++
		return
	}
	first, last := i, i
	if width > 0 {
		first, last = min(base, i), max(base+width-1, i)
	}
	if n := denseLen(first, last); n < int(total) {
		// Widen: open the new buckets below the run or above it.
		at, grow := hi, n-(hi-lo)
		if width > 0 && i < base {
			at = lo + denseHead
		}
		page = s.resize(k, at, grow)
		clear(page[at : at+grow])
		page[lo+3] = first
		page[lo+denseHead+int(i-first)] = 1
		return
	}
	s.toSparse(k, page, lo, hi, i)
}

// toSparse rewrites dense link k, words [lo, hi), in the sparse layout,
// with the new bucket i, which lies outside its run, inserted.
func (s *Set) toSparse(k int, page []int32, lo, hi int, i int32) {
	d := s.scratch[:0]
	for range uint32(page[lo+2]) {
		d = append(d, zeroIndex)
	}
	base := page[lo+3]
	for j, c := range page[lo+denseHead : hi] {
		for range uint32(c) {
			d = append(d, base+int32(j))
		}
	}
	d = slices.Insert(d, upper(d, i), i)
	s.scratch = d
	s.replace(k, lo, hi, d)
}

// replace makes d the words of link k, which are [lo, hi) of its slab.
func (s *Set) replace(k, lo, hi int, d []int32) {
	page := s.resize(k, lo+min(len(d), hi-lo), len(d)-(hi-lo))
	copy(page[lo:], d)
}

// resize opens d words at slab position at of link k's slab (d > 0) or
// closes the -d words starting there (d < 0), moving the slab's later words
// and the offsets of its later links. A slab that must grow gets an eighth
// more room than it needs.
func (s *Set) resize(k, at, d int) []int32 {
	p := k >> pageShift
	page := s.pages[p]
	n := len(page)
	switch {
	case d > 0 && n+d > cap(page):
		grown := make([]int32, n+d, n+d+(n+d)/8+8)
		copy(grown, page[:at])
		copy(grown[at+d:], page[at:])
		page = grown
	case d > 0:
		page = page[:n+d]
		copy(page[at+d:], page[at:n])
	default:
		copy(page[at:], page[at-d:])
		page = page[:n+d]
	}
	s.pages[p] = page
	for j := k + 1; j < len(s.off) && j>>pageShift == p; j++ {
		s.off[j] = uint32(int(s.off[j]) + d)
	}
	return page
}

// Quantile returns an estimate of link k's q-quantile (q in [0, 1]): the
// representative of the bucket holding the sample of rank
// ceil(q*(Count-1)), which is within relative error Alpha of that sample's
// exact value. A link without samples reports 0. The estimate is a pure
// function of the link's logical state.
func (s *Set) Quantile(k int, q float64) float64 {
	page, lo, hi := s.link(k)
	if hi == lo {
		return 0
	}
	if !(q > 0) {
		q = 0 // NaN too
	} else if q > 1 {
		q = 1
	}
	if page[lo] != denseMark {
		return s.representative(page[lo+int(math.Ceil(q*float64(hi-lo-1)))])
	}
	total := int64(uint32(page[lo+1]))
	rank := int64(math.Ceil(q * float64(total-1)))
	cum := int64(uint32(page[lo+2]))
	if rank < cum {
		return 0
	}
	base := page[lo+3]
	for j, c := range page[lo+denseHead : hi] {
		cum += int64(uint32(c))
		if cum > rank {
			return s.representative(base + int32(j))
		}
	}
	panic("sketch: bucket counts do not sum to the total")
}
