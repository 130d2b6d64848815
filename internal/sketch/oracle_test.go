package sketch

import (
	"math"
	"slices"
)

// Sketch is the test oracle: one link's quantile sketch as a plain dense
// histogram of int64 counts, grown to whatever bucket an Add lands in. Its
// logical state (zero count plus bucket multiset) is what a Set link must
// hold, so Set quantiles must match its quantiles bit for bit.
type Sketch struct {
	alpha    float64
	gamma    float64
	logGamma float64

	// zero counts values at or below MinIndexable. Larger values live in
	// dense log-buckets: counts[i] counts values v with
	// index(v) == offset + i. Both ends of counts are occupied.
	zero   int64
	offset int
	counts []int64
	total  int64
}

// New returns an empty oracle sketch; alpha <= 0 selects DefaultAlpha.
func New(alpha float64) *Sketch {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{alpha: alpha, gamma: gamma, logGamma: math.Log(gamma)}
}

// top is the +Inf bucket: one above the largest float64's.
func (s *Sketch) top() int { return Index(math.MaxFloat64, s.logGamma) + 1 }

func (s *Sketch) representative(i int) float64 {
	if i == s.top() {
		return math.Inf(1)
	}
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Add records one value: zero bucket at or below MinIndexable (and NaN),
// the top bucket for +Inf.
func (s *Sketch) Add(v float64) {
	s.total++
	switch {
	case v > math.MaxFloat64:
		s.bump(s.top())
	case v > MinIndexable:
		s.bump(Index(v, s.logGamma))
	default:
		s.zero++
	}
}

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

// Quantile is the reference nearest-rank quantile.
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

// words returns a copy of link k's words: its whole state, since equal
// states have equal words.
func (s *Set) words(k int) []int32 {
	page, lo, hi := s.link(k)
	return slices.Clone(page[lo:hi])
}

// sameLink reports whether link ka of a and link kb of b hold identical
// state.
func sameLink(a *Set, ka int, b *Set, kb int) bool {
	return a.alpha == b.alpha && slices.Equal(a.words(ka), b.words(kb))
}
