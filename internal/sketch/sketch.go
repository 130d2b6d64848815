// Package sketch implements a streaming quantile sketch for per-link
// latency tails: a DDSketch-style log-bucketed histogram with a
// configurable relative-error guarantee. measure.Stream maintains one per
// ordered instance pair so epochs can publish p95/p99 matrices while the
// measurement is still in flight, the way the PV-storage work in PAPERS.md
// keeps compact summaries of high-rate streams instead of raw samples.
//
// DDSketch was chosen over t-digest deliberately: its state is a vector of
// integer bucket counts, and integer addition is commutative and
// associative, so the state after a stream of Adds is bit-identical
// whatever order the samples arrived in (TestAddOrderIndependent pins
// this). That makes the sketch safe for the repo's determinism contract. A
// t-digest's centroids depend on insertion order, which would make epoch
// content a function of how samples interleave.
//
// Accuracy guarantee: for every recorded value v above the indexable
// minimum, the bucket representative r satisfies |r - v| <= Alpha * v. A
// quantile query returns the representative of the bucket holding the
// nearest-rank sample, so Quantile(q) is within relative error Alpha of the
// exact q-quantile sample. Against a linearly interpolated percentile
// (stats.Percentile) the estimate lies in [lo*(1-Alpha), hi*(1+Alpha)],
// where lo and hi are the order statistics bracketing the interpolation
// point — the bound measure's TestTailMatrixWithinBound asserts.
package sketch

import (
	"fmt"
	"math"
	"slices"
)

// DefaultAlpha is the relative-error bound used when a caller does not pick
// one: 1% relative error keeps p99 estimates well inside measurement noise
// while a 1000-instance fleet's million per-link sketches stay small (RTT
// spreads of 10^3 span ~350 buckets at this alpha).
const DefaultAlpha = 0.01

// MinIndexable is the smallest value the log-bucket index covers; values in
// [0, MinIndexable] (sub-nanosecond RTTs in this repo's millisecond unit)
// collapse into a dedicated zero bucket whose representative is 0.
const MinIndexable = 1e-9

// Sketch is a quantile summary of a stream of non-negative values. The
// zero value is not usable; construct with New. A Sketch is not safe for
// concurrent use — the streaming measurement owns each per-link sketch
// from a single goroutine and publishes immutable matrices, never the
// sketches themselves.
type Sketch struct {
	alpha    float64
	gamma    float64
	logGamma float64 // cached log(gamma), the per-Add divisor

	// zero counts values at or below MinIndexable. Larger values live in
	// dense log-buckets: counts[i] counts values v with
	// index(v) == offset + i, where index(v) = ceil(log_gamma(v)). Both
	// ends of counts are occupied: it only ever grows to the bucket an Add
	// lands in.
	zero   int64
	offset int
	counts []int64
	total  int64
}

// New returns an empty sketch with the given relative-error bound alpha in
// (0, 1); alpha <= 0 selects DefaultAlpha.
func New(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if alpha >= 1 {
		panic(fmt.Sprintf("sketch: relative error bound %g outside (0, 1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{alpha: alpha, gamma: gamma, logGamma: math.Log(gamma)}
}

// Alpha reports the sketch's relative-error bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count reports the number of recorded values.
func (s *Sketch) Count() int64 { return s.total }

// Index maps a value above MinIndexable to its log-bucket index under the
// bucket ratio gamma = (1+alpha)/(1-alpha), given as logGamma = log(gamma):
// gamma^(i-1) < v <= gamma^i. The mapping is a pure function of (v, alpha).
func Index(v, logGamma float64) int {
	return int(math.Ceil(math.Log(v) / logGamma))
}

// representative returns the value every sample in bucket i reports as:
// 2*gamma^i/(gamma+1), the point whose relative distance to both bucket
// edges is exactly alpha.
func (s *Sketch) representative(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Add records one value. Negative values are clamped into the zero bucket:
// link latencies cannot be negative, and a conservative 0 beats poisoning
// the log index with NaN.
func (s *Sketch) Add(v float64) {
	s.total++
	if v <= MinIndexable || math.IsNaN(v) {
		s.zero++
		return
	}
	s.bump(Index(v, s.logGamma))
}

// bump counts one value in the bucket at absolute index i, growing the
// dense count array as needed. Growth is geometry-free bookkeeping: the
// resulting state (offset, counts) never depends on arrival order.
func (s *Sketch) bump(i int) {
	if len(s.counts) == 0 {
		s.offset = i
		s.counts = append(s.counts, 1)
		return
	}
	if i < s.offset {
		grown := make([]int64, len(s.counts)+(s.offset-i))
		copy(grown[s.offset-i:], s.counts)
		s.counts, s.offset = grown, i
	} else if i >= s.offset+len(s.counts) {
		grown := make([]int64, i-s.offset+1)
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[i-s.offset]++
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) of the
// recorded values: the representative of the bucket holding the sample of
// rank ceil(q*(Count-1)), which is within relative error Alpha of that
// sample's exact value. An empty sketch reports 0. Bucket scan order is
// fixed (ascending index), so the estimate is a pure function of the
// sketch's logical state.
func (s *Sketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.total-1)))
	if rank < s.zero {
		return 0
	}
	cum := s.zero
	for i, c := range s.counts {
		cum += c
		if cum > rank {
			return s.representative(s.offset + i)
		}
	}
	panic("sketch: bucket counts do not sum to the total")
}

// Equal reports whether two sketches hold identical state: same alpha,
// same total and zero counts, and the same count in every bucket. Array
// capacity is ignored; both ends of counts are occupied, so equal content
// means equal offset and counts.
func (s *Sketch) Equal(o *Sketch) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.alpha == o.alpha && s.total == o.total && s.zero == o.zero &&
		s.offset == o.offset && slices.Equal(s.counts, o.counts)
}
