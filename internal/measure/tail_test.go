package measure

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cloudia/internal/stats"
)

// bracket returns the order statistics lo, hi surrounding the linearly
// interpolated p-quantile rank of xs — the exact-value envelope the sketch
// estimate must land in after widening by its relative error bound.
func bracket(xs []float64, p float64) (lo, hi float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	r := p / 100 * float64(len(sorted)-1)
	i := int(r)
	j := i
	if float64(i) < r {
		j = i + 1
	}
	if j >= len(sorted) {
		j = len(sorted) - 1
	}
	return sorted[i], sorted[j]
}

// TestTailMatrixWithinBound pins the accuracy of the sketch percentiles:
// fed known samples, every sampled link's p95/p99 lands within the
// sketch's relative-error bound of the exact percentile — stats.Percentile
// over the same samples, bracketed by the order statistics around its
// interpolation point — and unsampled links carry the global-mean
// fallback.
func TestTailMatrixWithinBound(t *testing.T) {
	const n = 8
	res := newResult(n, Staged)
	res.setTailAlpha(DefaultTailAlpha)
	if res.TailAlpha() != DefaultTailAlpha {
		t.Fatalf("TailAlpha = %g, want %g", res.TailAlpha(), DefaultTailAlpha)
	}
	rng := rand.New(rand.NewSource(7))
	samples := make([][]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || (i+j)%5 == 0 {
				continue // leave some links unsampled
			}
			base := 0.2 + 0.05*float64(i+j)
			for s := 0; s < 50+37*((i*n+j)%4); s++ {
				// Log-normal body with occasional heavy spikes.
				rtt := base * math.Exp(0.3*rng.NormFloat64())
				if rng.Float64() < 0.03 {
					rtt += rng.ExpFloat64()
				}
				res.record(i, j, rtt)
				samples[i*n+j] = append(samples[i*n+j], rtt)
			}
		}
	}
	fallback := res.MeanMatrix()
	for _, pct := range []float64{95, 99} {
		tail, err := res.TailMatrix(pct)
		if err != nil {
			t.Fatal(err)
		}
		alpha := res.TailAlpha()
		checked := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				xs := samples[i*n+j]
				if len(xs) == 0 {
					if tail.At(i, j) != fallback.At(i, j) {
						t.Fatalf("p%g (%d,%d): fallback %g, want the global mean %g",
							pct, i, j, tail.At(i, j), fallback.At(i, j))
					}
					continue
				}
				exact, err := stats.Percentile(xs, pct)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := bracket(xs, pct)
				if exact < lo || exact > hi {
					t.Fatalf("p%g (%d,%d): exact %g outside its bracket [%g, %g]", pct, i, j, exact, lo, hi)
				}
				got := tail.At(i, j)
				if got < lo*(1-alpha) || got > hi*(1+alpha) {
					t.Fatalf("p%g (%d,%d): sketch %g outside [%g, %g] (exact %g)",
						pct, i, j, got, lo*(1-alpha), hi*(1+alpha), exact)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("p%g: no sampled links checked", pct)
		}
	}
}

// TestStreamTailEpochs pins the streaming side: epochs carry p95/p99 tail
// matrices and the mean+sd matrix, each with exact changed-row sets and
// fingerprints; and the final epoch's are bit-identical to the Result's
// TailMatrix and MeanPlusStdMatrix.
func TestStreamTailEpochs(t *testing.T) {
	dc, insts := testFleet(t, 10, 1701)
	opts := Options{Scheme: Staged, DurationMS: 3000, Seed: 11, TailAlpha: DefaultTailAlpha}

	type tailState struct {
		pct  float64
		vals []float64
	}
	st, err := Stream(dc, insts, opts)
	if err != nil {
		t.Fatal(err)
	}
	var epochs [][]tailState
	var prev [][]float64
	for ep := range st.Epochs {
		if len(ep.Tails) != len(TailPercentiles) {
			t.Fatalf("epoch %d: %d tails, want %d", ep.Index, len(ep.Tails), len(TailPercentiles))
		}
		if ep.MeanPlusStd == nil {
			t.Fatalf("epoch %d: no mean+sd matrix", ep.Index)
		}
		// The mean+sd matrix rides last, under Pct 0.
		published := append(append([]TailMatrix(nil), ep.Tails...), *ep.MeanPlusStd)
		want := append(append([]float64(nil), TailPercentiles...), 0)
		var states []tailState
		for x, tm := range published {
			if tm.Pct != want[x] {
				t.Fatalf("epoch %d matrix %d: pct %g, want %g", ep.Index, x, tm.Pct, want[x])
			}
			if tm.Fingerprint == 0 {
				t.Fatalf("epoch %d p%g: zero fingerprint", ep.Index, tm.Pct)
			}
			if got := tm.Matrix.Fingerprint(); got != tm.Fingerprint {
				t.Fatalf("epoch %d p%g: incremental fp %x != recomputed %x", ep.Index, tm.Pct, tm.Fingerprint, got)
			}
			n := tm.Matrix.Size()
			flat := make([]float64, 0, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					flat = append(flat, tm.Matrix.At(i, j))
				}
			}
			if prev == nil {
				prev = make([][]float64, len(published))
			}
			// Changed-row contract: a row is listed iff it differs from
			// the previous epoch's matrix for the same percentile.
			if prev[x] != nil {
				listed := make(map[int]bool, len(tm.ChangedRows))
				for _, r := range tm.ChangedRows {
					listed[r] = true
				}
				for i := 0; i < n; i++ {
					differs := false
					for j := 0; j < n; j++ {
						if flat[i*n+j] != prev[x][i*n+j] {
							differs = true
							break
						}
					}
					if differs != listed[i] {
						t.Fatalf("epoch %d p%g row %d: differs=%v listed=%v", ep.Index, tm.Pct, i, differs, listed[i])
					}
				}
			}
			prev[x] = flat
			states = append(states, tailState{pct: tm.Pct, vals: flat})
		}
		epochs = append(epochs, states)
	}
	res := st.Wait()
	if len(epochs) < 2 {
		t.Fatalf("only %d epochs", len(epochs))
	}

	// The final epoch's matrices must be bit-identical to the Result's.
	final := epochs[len(epochs)-1]
	for _, ts := range final {
		batch := res.MeanPlusStdMatrix()
		if ts.pct > 0 {
			var err error
			if batch, err = res.TailMatrix(ts.pct); err != nil {
				t.Fatal(err)
			}
		}
		n := batch.Size()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if ts.vals[i*n+j] != batch.At(i, j) {
					t.Fatalf("final epoch p%g (%d,%d): %g != batch %g", ts.pct, i, j, ts.vals[i*n+j], batch.At(i, j))
				}
			}
		}
	}
}

// TestStreamNoTailsWhenDisabled: without TailAlpha the epoch surface is
// unchanged from the mean-only contract.
func TestStreamNoTailsWhenDisabled(t *testing.T) {
	dc, insts := testFleet(t, 6, 1701)
	st, err := Stream(dc, insts, Options{Scheme: Staged, DurationMS: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for ep := range st.Epochs {
		if len(ep.Tails) != 0 {
			t.Fatalf("epoch %d: unexpected tails", ep.Index)
		}
		if ep.Tail(99) != nil {
			t.Fatal("Tail(99) must be nil without sketches")
		}
		if ep.MeanPlusStd != nil {
			t.Fatalf("epoch %d: unexpected mean+sd matrix", ep.Index)
		}
	}
	if _, err := st.Wait().TailMatrix(99); err == nil {
		t.Fatal("TailMatrix must error when sketches are disabled")
	}
}

func TestTailAlphaValidation(t *testing.T) {
	dc, insts := testFleet(t, 4, 1701)
	if _, err := Run(dc, insts, Options{Scheme: Staged, DurationMS: 100, TailAlpha: -0.1}); err == nil {
		t.Fatal("negative TailAlpha must be rejected")
	}
	if _, err := Run(dc, insts, Options{Scheme: Staged, DurationMS: 100, TailAlpha: 1.5}); err == nil {
		t.Fatal("TailAlpha >= 1 must be rejected")
	}
	if _, err := Run(dc, insts, Options{Scheme: Staged, DurationMS: 100, TailAlpha: 1e-9}); err == nil {
		t.Fatal("TailAlpha below sketch.MinAlpha must be rejected")
	}
}
