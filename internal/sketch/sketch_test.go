package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile returns the nearest-rank q-quantile of xs (the sample the
// sketch promises to be within Alpha of).
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted)-1)))
	return sorted[rank]
}

func randomSamples(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Log-uniform over ~6 decades plus occasional zeros, mimicking RTT
		// spreads with dead links.
		if r.Intn(50) == 0 {
			xs[i] = 0
			continue
		}
		xs[i] = math.Pow(10, -2+6*r.Float64())
	}
	return xs
}

func TestQuantileWithinRelativeError(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ns := []int{1, 2, 10, 1000, 20000}
	for _, alpha := range []float64{0.005, 0.01, 0.05} {
		s := NewSet(alpha, len(ns))
		for k, n := range ns {
			xs := randomSamples(r, n)
			for _, v := range xs {
				s.Add(k, v)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
				got := s.Quantile(k, q)
				want := exactQuantile(sorted, q)
				if want == 0 {
					if got != 0 {
						t.Fatalf("alpha=%g n=%d q=%g: want exact 0, got %g", alpha, n, q, got)
					}
					continue
				}
				if got < want*(1-alpha) || got > want*(1+alpha) {
					t.Fatalf("alpha=%g n=%d q=%g: got %g outside [%g, %g] around exact %g",
						alpha, n, q, got, want*(1-alpha), want*(1+alpha), want)
				}
			}
		}
	}
}

func TestRepresentativeBound(t *testing.T) {
	// Every value must land in a bucket whose representative is within
	// alpha of it — the invariant everything else rests on.
	s := NewSet(0.01, 1)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		v := math.Pow(10, -6+12*r.Float64())
		rep := s.representative(s.bucket(v))
		if math.Abs(rep-v) > s.alpha*v*(1+1e-12) {
			t.Fatalf("value %g: representative %g off by %g > alpha*v %g",
				v, rep, math.Abs(rep-v), s.alpha*v)
		}
	}
}

// TestAddOrderIndependent: a link's state is a zero count and a multiset of
// bucket indices, so the same samples added in any order, interleaved with
// other links' samples in any way, give bit-identical links.
func TestAddOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	type sample struct {
		k int
		v float64
	}
	// Link 0 stays sparse, link 1 goes dense, link 2 is mostly zeros.
	var xs []sample
	for _, v := range randomSamples(r, 12) {
		xs = append(xs, sample{0, v})
	}
	for _, v := range randomSamples(r, 5000) {
		xs = append(xs, sample{1, v})
	}
	for i := 0; i < 40; i++ {
		xs = append(xs, sample{2, float64(i % 3)})
	}
	fill := func() *Set {
		s := NewSet(0.01, 3)
		for _, x := range xs {
			s.Add(x.k, x.v)
		}
		return s
	}
	sequential := fill()
	for trial := 0; trial < 3; trial++ {
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		shuffled := fill()
		for k := 0; k < 3; k++ {
			if !sameLink(shuffled, k, sequential, k) {
				t.Fatalf("shuffle %d: link %d differs from the sequential one", trial, k)
			}
			for _, q := range []float64{0.5, 0.95, 0.99} {
				if a, b := shuffled.Quantile(k, q), sequential.Quantile(k, q); a != b {
					t.Fatalf("shuffle %d link %d: Quantile(%g)=%g != sequential %g", trial, k, q, a, b)
				}
			}
		}
	}
}

func TestZeroAndNegativeValues(t *testing.T) {
	s := NewSet(0.01, 1)
	s.Add(0, 0)
	s.Add(0, -3.5)
	s.Add(0, math.NaN())
	s.Add(0, 1e-12)
	s.Add(0, math.Inf(-1))
	if s.Count(0) != 5 {
		t.Fatalf("count = %d, want 5", s.Count(0))
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(0, q); got != 0 {
			t.Fatalf("Quantile(%g) = %g, want 0 for all-zero sketch", q, got)
		}
	}
	// Mixed: zeros below, positives above.
	s.Add(0, 100)
	s.Add(0, 200)
	if got := s.Quantile(0, 0); got != 0 {
		t.Fatalf("Quantile(0) = %g, want 0", got)
	}
	hi := s.Quantile(0, 1)
	if hi < 200*(1-0.01) || hi > 200*(1+0.01) {
		t.Fatalf("Quantile(1) = %g, want ~200", hi)
	}
}

// TestInfTopBucket: +Inf after finite samples is counted in a top bucket
// whose representative is +Inf; it sizes nothing by its value.
func TestInfTopBucket(t *testing.T) {
	for _, n := range []int{3, 40} { // sparse and dense links
		s, o := NewSet(0.01, 1), New(0.01)
		for i := 0; i < n; i++ {
			s.Add(0, 1+float64(i%5))
			o.Add(1 + float64(i%5))
		}
		s.Add(0, math.Inf(1))
		o.Add(math.Inf(1))
		if got := s.Quantile(0, 1); !math.IsInf(got, 1) {
			t.Fatalf("n=%d: Quantile(1) = %g, want +Inf", n, got)
		}
		if got := o.Quantile(1); !math.IsInf(got, 1) {
			t.Fatalf("n=%d: oracle Quantile(1) = %g, want +Inf", n, got)
		}
		if a, b := s.Quantile(0, 0.5), o.Quantile(0.5); a != b {
			t.Fatalf("n=%d: median %g, oracle %g", n, a, b)
		}
		if s.Count(0) != n+1 {
			t.Fatalf("n=%d: count %d", n, s.Count(0))
		}
		if words := len(s.words(0)); words > n+1 {
			t.Fatalf("n=%d: +Inf link holds %d words, more than its %d samples", n, words, n+1)
		}
	}
	// The largest finite value is not +Inf.
	s := NewSet(0.01, 1)
	s.Add(0, math.MaxFloat64)
	if s.bucket(math.MaxFloat64) == s.top {
		t.Fatal("MaxFloat64 shares +Inf's bucket")
	}
}

func TestEmptySketch(t *testing.T) {
	s := NewSet(0, 3)
	if s.Alpha() != DefaultAlpha {
		t.Fatalf("alpha = %g, want default %g", s.Alpha(), DefaultAlpha)
	}
	for k := 0; k < 3; k++ {
		if s.Count(k) != 0 || s.Quantile(k, 0.99) != 0 {
			t.Fatalf("empty link %d: count=%d quantile=%g, want 0/0", k, s.Count(k), s.Quantile(k, 0.99))
		}
	}
	if !sameLink(s, 0, NewSet(0, 1), 0) {
		t.Fatal("two empty links must be equal")
	}
}

func TestQuantileClamping(t *testing.T) {
	s := NewSet(0.01, 2)
	for i := 1; i <= 10; i++ {
		s.Add(0, float64(i))
	}
	for i := 1; i <= 200; i++ {
		s.Add(1, float64(i%7+1)) // dense
	}
	for k := 0; k < 2; k++ {
		if got, want := s.Quantile(k, -0.5), s.Quantile(k, 0); got != want {
			t.Fatalf("link %d: Quantile(-0.5)=%g != Quantile(0)=%g", k, got, want)
		}
		if got, want := s.Quantile(k, math.NaN()), s.Quantile(k, 0); got != want {
			t.Fatalf("link %d: Quantile(NaN)=%g != Quantile(0)=%g", k, got, want)
		}
		if got, want := s.Quantile(k, 2), s.Quantile(k, 1); got != want {
			t.Fatalf("link %d: Quantile(2)=%g != Quantile(1)=%g", k, got, want)
		}
	}
}

func TestEqualDistinguishesContent(t *testing.T) {
	s := NewSet(0.01, 2)
	s.Add(0, 5)
	if sameLink(s, 0, s, 1) {
		t.Fatal("links with different totals must differ")
	}
	s.Add(1, 5.001) // same bucket as 5 at alpha=0.01
	if !sameLink(s, 0, s, 1) {
		t.Fatal("same-bucket values must compare equal")
	}
	s.Add(1, 500)
	s.Add(0, 5)
	if sameLink(s, 0, s, 1) {
		t.Fatal("different bucket contents must differ")
	}
	c, d := NewSet(0.05, 1), NewSet(0.01, 1)
	c.Add(0, 5)
	d.Add(0, 5)
	if sameLink(c, 0, d, 0) {
		t.Fatal("different alphas must differ")
	}
}

func TestNewInvalidAlphaPanics(t *testing.T) {
	for _, alpha := range []float64{1, 1.5, MinAlpha / 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %g must panic", alpha)
				}
			}()
			NewSet(alpha, 1)
		}()
	}
	// At the smallest alpha the +Inf bucket still fits an int32.
	s := NewSet(MinAlpha, 1)
	s.Add(0, math.Inf(1))
	s.Add(0, MinIndexable*1.5)
	if !math.IsInf(s.Quantile(0, 1), 1) || s.Quantile(0, 0) == 0 {
		t.Fatalf("MinAlpha extremes: %g, %g", s.Quantile(0, 0), s.Quantile(0, 1))
	}
}

// TestBumpGrowth drives one link through every layout change: sparse
// growth in both directions, the switch to dense counts, dense widening in
// both directions, and back to sparse when an outlier makes the run longer
// than the samples.
func TestBumpGrowth(t *testing.T) {
	s, o := NewSet(0.01, 3), New(0.01)
	add := func(v float64) {
		t.Helper()
		s.Add(1, v)
		o.Add(v)
		s.Add(0, 7) // neighbours on both sides of the slab must not move
		s.Add(2, 9)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if a, b := s.Quantile(1, q), o.Quantile(q); a != b {
				t.Fatalf("after %g: Quantile(%g) = %g, oracle %g", v, q, a, b)
			}
		}
	}
	dense := func() bool { w := s.words(1); return len(w) > 0 && w[0] == denseMark }
	add(100)  // establishes the link
	add(1e-3) // grow downward
	add(1e5)  // grow upward
	if dense() {
		t.Fatal("3 samples over 1400 buckets went dense")
	}
	for i := 0; i < 50; i++ {
		add(100 * (1 + float64(i%4)/100))
	}
	if dense() {
		t.Fatal("53 samples over 1400 buckets went dense")
	}
	s2, o2 := NewSet(0.01, 1), New(0.01)
	for i := 0; i < 20; i++ {
		s2.Add(0, 10+float64(i%3))
		o2.Add(10 + float64(i%3))
	}
	if w := s2.words(0); w[0] != denseMark {
		t.Fatal("20 samples in 3 buckets stayed sparse")
	}
	for _, v := range []float64{9, 14, 0, 8.5} { // widen down, up; zero
		s2.Add(0, v)
		o2.Add(v)
	}
	s2.Add(0, 1e4) // the run would outgrow the samples: back to sparse
	o2.Add(1e4)
	if w := s2.words(0); w[0] == denseMark || len(w) != 25 {
		t.Fatalf("wide link kept %d words, dense=%v", len(w), w[0] == denseMark)
	}
	for _, q := range []float64{0, 0.04, 0.5, 0.99, 1} {
		if a, b := s2.Quantile(0, q), o2.Quantile(q); a != b {
			t.Fatalf("Quantile(%g) = %g, oracle %g", q, a, b)
		}
	}
	if s.Count(0) != 53 || s.Count(1) != 53 || s2.Count(0) != 25 {
		t.Fatalf("counts %d %d %d", s.Count(0), s.Count(1), s2.Count(0))
	}
}
