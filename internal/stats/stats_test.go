package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %g, want 5", w.Mean())
	}
	if !almostEqual(w.Std(), 2, 1e-12) {
		t.Fatalf("Std = %g, want 2", w.Std())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 {
		t.Fatal("empty Welford not zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Fatalf("single-sample Welford mean=%g var=%g", w.Mean(), w.Var())
	}
}

// TestMomentsMatchWelford: the moments without min/max are the same
// arithmetic as Welford's, bit for bit, in 24 bytes.
func TestMomentsMatchWelford(t *testing.T) {
	var m Moments
	var w Welford
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x := r.ExpFloat64() * 0.3
		m.Add(x)
		w.Add(x)
		if m != w.Moments {
			t.Fatalf("after %d samples: moments %+v, Welford's %+v", i+1, m, w.Moments)
		}
	}
	if size := unsafe.Sizeof(m); size != 24 {
		t.Fatalf("Moments is %d bytes, want 24", size)
	}
}

func TestMeanStdErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Std(nil); err != ErrEmpty {
		t.Fatalf("Std(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {90, 4.6},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%g): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("Percentile(101) accepted")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatal("Percentile(nil) should be ErrEmpty")
	}
	one, err := Percentile([]float64{7}, 99)
	if err != nil || one != 7 {
		t.Fatalf("Percentile single = %g, %v", one, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Fatalf("RMSE identical = %g, %v", got, err)
	}
	got, err = RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("RMSE = %g, want %g", got, math.Sqrt(12.5))
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestNormalizeUnit(t *testing.T) {
	v := NormalizeUnit([]float64{3, 4})
	if !almostEqual(v[0], 0.6, 1e-12) || !almostEqual(v[1], 0.8, 1e-12) {
		t.Fatalf("NormalizeUnit = %v", v)
	}
	z := NormalizeUnit([]float64{0, 0, 0})
	for _, x := range z {
		if x != 0 {
			t.Fatalf("zero vector normalized to %v", z)
		}
	}
	// Scale invariance: normalizing k*x equals normalizing x.
	a := NormalizeUnit([]float64{1, 2, 3})
	b := NormalizeUnit([]float64{10, 20, 30})
	for i := range a {
		if !almostEqual(a[i], b[i], 1e-12) {
			t.Fatalf("not scale invariant: %v vs %v", a, b)
		}
	}
}

func TestRelativeErrors(t *testing.T) {
	out, err := RelativeErrors([]float64{1.1, 2}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], 0.1, 1e-9) || out[1] != 0 {
		t.Fatalf("RelativeErrors = %v", out)
	}
	out, err = RelativeErrors([]float64{0, 1}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || !math.IsInf(out[1], 1) {
		t.Fatalf("zero-baseline handling = %v", out)
	}
}

func TestPearson(t *testing.T) {
	// Perfect positive and negative correlation.
	x := []float64{1, 2, 3, 4}
	r, err := Pearson(x, []float64{2, 4, 6, 8})
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Pearson = %g, %v, want 1", r, err)
	}
	r, err = Pearson(x, []float64{8, 6, 4, 2})
	if err != nil || !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Pearson = %g, want -1", r)
	}
	// Zero variance yields 0.
	r, err = Pearson(x, []float64{5, 5, 5, 5})
	if err != nil || r != 0 {
		t.Fatalf("Pearson constant = %g, want 0", r)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("CDF points = %d, want 3", len(pts))
	}
	if pts[0].Value != 1 || !almostEqual(pts[0].Fraction, 0.5, 1e-12) {
		t.Fatalf("first point = %+v", pts[0])
	}
	if pts[2].Value != 3 || pts[2].Fraction != 1 {
		t.Fatalf("last point = %+v", pts[2])
	}
	if CDF(nil) != nil {
		t.Fatal("CDF(nil) should be nil")
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionAbove(xs, 2.5); got != 0.5 {
		t.Fatalf("FractionAbove = %g, want 0.5", got)
	}
	if got := FractionBelow(xs, 2); got != 0.25 {
		t.Fatalf("FractionBelow = %g, want 0.25", got)
	}
	if FractionAbove(nil, 0) != 0 || FractionBelow(nil, 0) != 0 {
		t.Fatal("empty fractions should be 0")
	}
}

// Property: CDF fractions are nondecreasing and end at 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(100))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		pts := CDF(xs)
		prev := 0.0
		for _, p := range pts {
			if p.Fraction < prev {
				return false
			}
			prev = p.Fraction
		}
		return almostEqual(pts[len(pts)-1].Fraction, 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
