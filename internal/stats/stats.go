// Package stats provides the small statistical toolkit used throughout the
// ClouDiA reproduction: streaming mean/variance, percentiles, vector error
// measures, and correlation. All functions are deterministic and
// allocation-conscious so they can run inside the discrete-event simulator
// and inside solver inner loops.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Moments accumulates a running mean and variance using Welford's online
// algorithm: the count, mean and sum of squared deviations, 24 bytes. The
// zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Moments) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N reports the number of observations added.
func (w *Moments) N() int { return w.n }

// Mean reports the running mean, or 0 if no observations were added.
func (w *Moments) Mean() float64 { return w.mean }

// Var reports the population variance, or 0 for fewer than two observations.
func (w *Moments) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std reports the population standard deviation.
func (w *Moments) Std() float64 { return math.Sqrt(w.Var()) }

// Welford is Moments plus the running minimum and maximum. The zero value
// is ready to use.
type Welford struct {
	Moments
	min float64
	max float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.Moments.Add(x)
}

// Min reports the smallest observation, or 0 if none were added.
func (w *Welford) Min() float64 { return w.min }

// Max reports the largest observation, or 0 if none were added.
func (w *Welford) Max() float64 { return w.max }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs))), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// RMSE returns the root-mean-square error between two equal-length vectors.
func RMSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	ss := 0.0
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a))), nil
}

// NormalizeUnit scales xs to a unit (L2) vector, returning a fresh slice. If
// xs has zero norm the result is a zero vector of the same length. The paper
// normalizes latency vectors to unit length before comparing measurement
// schemes so that a uniform over/under-estimation factor does not count as
// error (Sect. 6.2.2).
func NormalizeUnit(xs []float64) []float64 {
	out := make([]float64, len(xs))
	norm := 0.0
	for _, x := range xs {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / norm
	}
	return out
}

// RelativeErrors returns |a[i]-b[i]| / b[i] for every i with b[i] != 0;
// entries with b[i] == 0 yield 0 when a[i] == 0 and +Inf otherwise.
func RelativeErrors(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, errors.New("stats: RelativeErrors length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		switch {
		case b[i] != 0:
			out[i] = math.Abs(a[i]-b[i]) / math.Abs(b[i])
		case a[i] == 0:
			out[i] = 0
		default:
			out[i] = math.Inf(1)
		}
	}
	return out, nil
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// vectors. It returns 0 when either vector has zero variance.
func Pearson(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: Pearson length mismatch")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	ma, _ := Mean(a)
	mb, _ := Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0, nil
	}
	return sab / math.Sqrt(saa*sbb), nil
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64 // sample value
	Fraction float64 // fraction of samples <= Value
}

// CDF returns the empirical CDF of xs as a sorted sequence of points, one per
// distinct value.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values into a single step.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{Value: sorted[i], Fraction: float64(i+1) / n})
	}
	return out
}

// FractionAbove returns the fraction of samples strictly greater than
// threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionBelow returns the fraction of samples strictly less than threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
