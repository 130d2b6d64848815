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
	for _, alpha := range []float64{0.005, 0.01, 0.05} {
		for _, n := range []int{1, 2, 10, 1000, 20000} {
			xs := randomSamples(r, n)
			s := New(alpha)
			for _, v := range xs {
				s.Add(v)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
				got := s.Quantile(q)
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
	s := New(0.01)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		v := math.Pow(10, -6+12*r.Float64())
		rep := s.representative(Index(v, s.logGamma))
		if math.Abs(rep-v) > s.alpha*v*(1+1e-12) {
			t.Fatalf("value %g: representative %g off by %g > alpha*v %g",
				v, rep, math.Abs(rep-v), s.alpha*v)
		}
	}
}

// TestAddOrderIndependent: a sketch's state is integer bucket counts, so
// the same samples added in any order give a bit-identical sketch.
func TestAddOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	xs := randomSamples(r, 5000)
	sequential := New(0.01)
	for _, v := range xs {
		sequential.Add(v)
	}
	for trial := 0; trial < 3; trial++ {
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		shuffled := New(0.01)
		for _, v := range xs {
			shuffled.Add(v)
		}
		if !shuffled.Equal(sequential) {
			t.Fatalf("shuffle %d: sketch differs from the sequential one", trial)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if a, b := shuffled.Quantile(q), sequential.Quantile(q); a != b {
				t.Fatalf("shuffle %d: Quantile(%g)=%g != sequential %g", trial, q, a, b)
			}
		}
	}
}

func TestZeroAndNegativeValues(t *testing.T) {
	s := New(0.01)
	s.Add(0)
	s.Add(-3.5)
	s.Add(math.NaN())
	s.Add(1e-12)
	if s.Count() != 4 {
		t.Fatalf("count = %d, want 4", s.Count())
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%g) = %g, want 0 for all-zero sketch", q, got)
		}
	}
	// Mixed: zeros below, positives above.
	s.Add(100)
	s.Add(200)
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0) = %g, want 0", got)
	}
	hi := s.Quantile(1)
	if hi < 200*(1-0.01) || hi > 200*(1+0.01) {
		t.Fatalf("Quantile(1) = %g, want ~200", hi)
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(0)
	if s.Alpha() != DefaultAlpha {
		t.Fatalf("alpha = %g, want default %g", s.Alpha(), DefaultAlpha)
	}
	if s.Count() != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("empty sketch: count=%d quantile=%g, want 0/0", s.Count(), s.Quantile(0.99))
	}
	o := New(0)
	if !s.Equal(o) {
		t.Fatal("two empty sketches must be equal")
	}
}

func TestQuantileClamping(t *testing.T) {
	s := New(0.01)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got, want := s.Quantile(-0.5), s.Quantile(0); got != want {
		t.Fatalf("Quantile(-0.5)=%g != Quantile(0)=%g", got, want)
	}
	if got, want := s.Quantile(2), s.Quantile(1); got != want {
		t.Fatalf("Quantile(2)=%g != Quantile(1)=%g", got, want)
	}
}

func TestEqualDistinguishesContent(t *testing.T) {
	a, b := New(0.01), New(0.01)
	a.Add(5)
	if a.Equal(b) {
		t.Fatal("sketches with different totals must differ")
	}
	b.Add(5.001) // same bucket as 5 at alpha=0.01
	if !a.Equal(b) {
		t.Fatal("same-bucket values must compare equal")
	}
	b.Add(500)
	a.Add(5)
	if a.Equal(b) {
		t.Fatal("different bucket contents must differ")
	}
	c := New(0.05)
	c.Add(5)
	d := New(0.01)
	d.Add(5)
	if c.Equal(d) {
		t.Fatal("different alphas must differ")
	}
	var nilSketch *Sketch
	if nilSketch.Equal(d) || d.Equal(nilSketch) {
		t.Fatal("nil vs non-nil must differ")
	}
	if !nilSketch.Equal(nilSketch) {
		t.Fatal("nil vs nil must be equal")
	}
}

func TestNewInvalidAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha >= 1 must panic")
		}
	}()
	New(1.5)
}

func TestBumpGrowth(t *testing.T) {
	// Force growth in both directions and verify counts survive.
	s := New(0.01)
	s.Add(100)  // establishes the array
	s.Add(1e-3) // grow downward
	s.Add(1e5)  // grow upward
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	lo := s.Quantile(0)
	if lo < 1e-3*(1-0.01) || lo > 1e-3*(1+0.01) {
		t.Fatalf("Quantile(0) = %g, want ~1e-3", lo)
	}
	hi := s.Quantile(1)
	if hi < 1e5*(1-0.01) || hi > 1e5*(1+0.01) {
		t.Fatalf("Quantile(1) = %g, want ~1e5", hi)
	}
}
