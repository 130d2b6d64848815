package cluster

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/topology"
)

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans1D(nil, 3); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := KMeans1D([]float64{1}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// Bucket indices are logarithms, so values without one are rejected rather
// than binned; cost matrices already reject them at construction.
func TestKMeansRejectsInvalidValues(t *testing.T) {
	for _, bad := range []float64{-1, math.Copysign(1e-300, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := KMeans1D([]float64{1, bad, 2}, 2); err == nil {
			t.Fatalf("value %g accepted", bad)
		}
	}
	// Zero and sub-MinIndexable values share the zero bucket.
	r, err := KMeans1D([]float64{0, 1e-12, 0, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Centers) != 2 || math.Abs(r.Centers[0]-1e-12/3) > 1e-24 || r.Centers[1] != 5 {
		t.Fatalf("centers = %v, want the zero bucket's mean and 5", r.Centers)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	r, err := KMeans1D([]float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Centers) != 1 || math.Abs(r.Centers[0]-2) > 1e-12 {
		t.Fatalf("centers = %v, want [2]", r.Centers)
	}
	if math.Abs(r.Cost-2) > 1e-12 { // (1-2)^2+(2-2)^2+(3-2)^2
		t.Fatalf("cost = %g, want 2", r.Cost)
	}
}

func TestKMeansPerfectSplit(t *testing.T) {
	xs := []float64{1, 1.1, 0.9, 10, 10.1, 9.9}
	r, err := KMeans1D(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Centers) != 2 {
		t.Fatalf("centers = %v, want 2 clusters", r.Centers)
	}
	if math.Abs(r.Centers[0]-1) > 1e-9 || math.Abs(r.Centers[1]-10) > 1e-9 {
		t.Fatalf("centers = %v, want ~[1 10]", r.Centers)
	}
	// All low values assign to the low center.
	for _, x := range []float64{0.9, 1, 1.1} {
		if got := r.Assign(x); math.Abs(got-1) > 1e-9 {
			t.Fatalf("Assign(%g) = %g, want ~1", x, got)
		}
	}
}

func TestKMeansKExceedsDistinct(t *testing.T) {
	r, err := KMeans1D([]float64{5, 5, 7, 7}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Centers) != 2 {
		t.Fatalf("centers = %v, want one per distinct value", r.Centers)
	}
	if r.Cost != 0 {
		t.Fatalf("cost = %g, want 0", r.Cost)
	}
}

func TestKMeansDuplicatesWeighted(t *testing.T) {
	// Three 0s and one 10 with k=1: mean must be weighted, 2.5.
	r, err := KMeans1D([]float64{0, 0, 0, 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Centers[0]-2.5) > 1e-12 {
		t.Fatalf("weighted center = %g, want 2.5", r.Centers[0])
	}
}

// distinct returns the sorted distinct values of xs and their
// multiplicities: the unquantized input the bucketed DP approximates.
func distinct(xs []float64) ([]float64, []int) {
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	var vals []float64
	var weights []int
	for _, v := range sorted {
		if len(vals) > 0 && vals[len(vals)-1] == v {
			weights[len(weights)-1]++
			continue
		}
		vals = append(vals, v)
		weights = append(weights, 1)
	}
	return vals, weights
}

// exactSums is the prefix-sum form of the unquantized input: one "bucket"
// per distinct value.
func exactSums(xs []float64) *prefixSums {
	vals, weights := distinct(xs)
	ps := &prefixSums{pw: []float64{0}, pwv: []float64{0}, pwv2: []float64{0}}
	for i, v := range vals {
		w := float64(weights[i])
		ps.push(w, w*v, w*v*v)
	}
	return ps
}

// bruteForce finds the optimal k-clustering cost by trying all contiguous
// partitions of the sorted distinct values.
func bruteForce(vals []float64, weights []int, k int) float64 {
	n := len(vals)
	if k >= n {
		return 0
	}
	best := math.Inf(1)
	// Choose k-1 boundaries among positions 1..n-1.
	var rec func(start, remaining int, cost float64)
	intervalCost := func(i, j int) float64 {
		var w, s float64
		for x := i; x <= j; x++ {
			w += float64(weights[x])
			s += float64(weights[x]) * vals[x]
		}
		mean := s / w
		c := 0.0
		for x := i; x <= j; x++ {
			d := vals[x] - mean
			c += float64(weights[x]) * d * d
		}
		return c
	}
	rec = func(start, remaining int, cost float64) {
		if remaining == 1 {
			total := cost + intervalCost(start, n-1)
			if total < best {
				best = total
			}
			return
		}
		for end := start; end <= n-remaining; end++ {
			rec(end+1, remaining-1, cost+intervalCost(start, end))
		}
	}
	rec(0, k, 0)
	return best
}

// Values on a 0.5 grid are far more than a bucket width apart, so every
// distinct value has its own bucket and the bucketed DP is the exact one.
func TestKMeansMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		k := 1 + rng.Intn(4)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.Float64()*10) / 2 // induce duplicates
		}
		r, err := KMeans1D(xs, k)
		if err != nil {
			return false
		}
		vals, weights := distinct(xs)
		want := bruteForce(vals, weights, min(k, len(vals)))
		return math.Abs(r.Cost-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceDP is the textbook O(kn^2) layered DP over the weighted input
// ps, kept as the specification the Knuth-Yao-narrowed sweep must match:
// dp[c][j] = min over i of dp[c-1][i-1] + cost(i, j).
func referenceDP(ps *prefixSums, k int) float64 {
	n := ps.len()
	k = min(k, n)
	prev := make([]float64, n)
	curr := make([]float64, n)
	for j := 0; j < n; j++ {
		prev[j] = ps.cost(0, j)
	}
	for c := 1; c < k; c++ {
		for j := 0; j < n; j++ {
			best := math.Inf(1)
			for i := c; i <= j; i++ {
				if v := prev[i-1] + ps.cost(i, j); v < best {
					best = v
				}
			}
			curr[j] = best
		}
		prev, curr = curr, prev
	}
	return prev[n-1]
}

// TestKMeansMatchesReferenceDP is the equal-cost property test of the
// bucket DP: on the same weighted bucket input, KMeans1D's cost must match
// the textbook DP. Narrow value ranges put many values in each bucket.
func TestKMeansMatchesReferenceDP(t *testing.T) {
	f := func(seed int64, rawK uint8, narrow bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		k := 1 + int(rawK)%40
		lo, span := 0.0, 100.0
		if narrow {
			lo, span = 10, 0.4 // ~20 buckets
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = lo + rng.Float64()*span
		}
		r, err := KMeans1D(xs, k)
		if err != nil {
			return false
		}
		ps, err := bin(xs, alpha)
		if err != nil {
			return false
		}
		want := referenceDP(ps, k)
		if len(r.Centers) != min(k, ps.len()) || !sort.Float64sAreSorted(r.Centers) {
			t.Logf("seed=%d n=%d k=%d: centers %v", seed, n, k, r.Centers)
			return false
		}
		if math.Abs(r.Cost-want) > 1e-6*(1+want) {
			t.Logf("seed=%d n=%d k=%d: cost %g, reference %g", seed, n, k, r.Cost, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Values spaced wider than a bucket never share one, so on them the bucket
// DP must reproduce the unquantized textbook DP's optimum exactly.
func TestKMeansSeparatedValuesMatchExactDP(t *testing.T) {
	f := func(seed int64, rawK uint8, dup bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		k := 1 + int(rawK)%40
		xs := make([]float64, n)
		v := 0.5
		for i := range xs {
			if dup {
				xs[i] = math.Round(rng.Float64()*40) / 4 // a 0.25 grid, with duplicates
			} else {
				v *= 1.01 + 0.2*rng.Float64() // ratio >= 1.01 > gamma
				xs[i] = v
			}
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		r, err := KMeans1D(xs, k)
		if err != nil {
			return false
		}
		want := referenceDP(exactSums(xs), k)
		if math.Abs(r.Cost-want) > 1e-9*(1+want) {
			t.Logf("seed=%d n=%d k=%d: bucket cost %g, exact %g", seed, n, k, r.Cost, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// dcOptimum is the optimal k-clustering cost over ps by plain monotone
// divide and conquer on two rolling layers: O(k n log n), fast enough for
// the ~10^5 unquantized values of a 300-instance cost matrix.
func dcOptimum(ps *prefixSums, k int) float64 {
	n := ps.len()
	prev, curr := make([]float64, n), make([]float64, n)
	for j := range prev {
		prev[j] = ps.cost(0, j)
	}
	var fill func(jlo, jhi, ilo, ihi int)
	fill = func(jlo, jhi, ilo, ihi int) {
		if jlo > jhi {
			return
		}
		j := (jlo + jhi) / 2
		best, bi := math.Inf(1), ilo
		for i := ilo; i <= min(ihi, j); i++ {
			if v := prev[i-1] + ps.cost(i, j); v < best {
				best, bi = v, i
			}
		}
		curr[j] = best
		fill(jlo, j-1, ilo, bi)
		fill(j+1, jhi, bi, ihi)
	}
	for c := 2; c <= k; c++ {
		fill(c-1, n-1, c-1, n-1)
		prev, curr = curr, prev
	}
	return prev[n-1]
}

// ec2Costs returns the off-diagonal costs of an EC2-profile mean RTT matrix
// over n instances, each link perturbed by up to ±5% the way measured
// matrices are, so nearly every value is distinct.
func ec2Costs(t *testing.T, n int) []float64 {
	t.Helper()
	dc, err := topology.New(topology.EC2Profile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := cloud.NewProvider(dc, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prov.RunInstances(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	xs := cloud.MeanRTTMatrix(dc, inst).OffDiagonal()
	for i := range xs {
		xs[i] *= 0.95 + 0.1*rng.Float64()
	}
	return xs
}

// Quantization only snaps cluster boundaries to bucket edges; on realistic
// latency matrices the cost it gives up against the unquantized optimum
// stays under 0.5%.
func TestKMeansNearUnquantizedOptimumEC2(t *testing.T) {
	for _, n := range []int{150, 300} {
		xs := ec2Costs(t, n)
		exact := exactSums(xs)
		for _, k := range []int{5, 10, 20, 40} {
			r, err := KMeans1D(xs, k)
			if err != nil {
				t.Fatal(err)
			}
			opt := dcOptimum(exact, k)
			ratio := r.Cost / opt
			t.Logf("n=%d k=%d: %d values, bucketed cost / optimum = %.6f", n, k, exact.len(), ratio)
			if ratio < 1-1e-9 || ratio > 1.005 {
				t.Fatalf("n=%d k=%d: bucketed cost %g vs unquantized optimum %g (ratio %.6f)", n, k, r.Cost, opt, ratio)
			}
		}
	}
}

// Inputs whose buckets would overflow the choice matrix are re-binned at
// doubled alpha until they fit: 20,000 values over nine decades fill ~10^4
// buckets at alpha, ~5,200 at 2*alpha — both too many for k=1000 — and
// ~2,600 at 4*alpha.
func TestKMeansCoarsensAlphaToFitChoiceCap(t *testing.T) {
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 1e-3 * math.Pow(10, 9*float64(i)/float64(len(xs)-1))
	}
	const k = 1000
	for _, a := range []float64{alpha, 2 * alpha} {
		ps, err := bin(xs, a)
		if err != nil {
			t.Fatal(err)
		}
		if (k-1)*ps.len() <= choiceCap {
			t.Fatalf("alpha %g: %d buckets already fit; the input no longer forces coarsening", a, ps.len())
		}
	}
	ps, err := bin(xs, 4*alpha)
	if err != nil {
		t.Fatal(err)
	}
	if (k-1)*ps.len() > choiceCap {
		t.Fatalf("alpha %g: %d buckets still exceed the cap", 4*alpha, ps.len())
	}
	want := ps.fit(k)
	r, err := KMeans1D(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Centers, want.Centers) || r.Cost != want.Cost {
		t.Fatal("KMeans1D does not cluster the first coarsening that fits")
	}
	if len(r.Centers) != k || !sort.Float64sAreSorted(r.Centers) {
		t.Fatalf("got %d centers, want %d ascending", len(r.Centers), k)
	}
}

// roundValues maps every value in xs to its center under KMeans1D.
func roundValues(t *testing.T, xs []float64, k int) []float64 {
	t.Helper()
	r, err := KMeans1D(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = r.Assign(x)
	}
	return out
}

func TestRoundValues(t *testing.T) {
	out := roundValues(t, []float64{1, 1.2, 9.8, 10}, 2)
	if math.Abs(out[0]-1.1) > 1e-9 || math.Abs(out[3]-9.9) > 1e-9 {
		t.Fatalf("rounded = %v", out)
	}
	// Rounding never changes the value ordering across clusters.
	if !(out[0] < out[2]) {
		t.Fatalf("ordering broken: %v", out)
	}
}

func TestRoundCostMatrix(t *testing.T) {
	m := core.NewCostMatrix(3)
	m.Set(0, 1, 1.0)
	m.Set(1, 0, 1.1)
	m.Set(0, 2, 5.0)
	m.Set(2, 0, 5.2)
	m.Set(1, 2, 1.05)
	m.Set(2, 1, 5.1)
	r, err := Round(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, pairs := r.Matrix(), r.CostPairs()
	dv := slices.Compact(slices.Sorted(slices.Values(out.OffDiagonal())))
	if len(dv) != 2 {
		t.Fatalf("distinct after rounding = %v, want 2 values", dv)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("rounded matrix invalid: %v", err)
	}
	// Diagonal untouched.
	if out.At(1, 1) != 0 {
		t.Fatal("diagonal modified")
	}
	// The pair list carries the rounded costs, ascending.
	for i, p := range pairs {
		if p.Cost != out.At(int(p.From), int(p.To)) || (i > 0 && p.Cost < pairs[i-1].Cost) {
			t.Fatalf("pair %d = %+v does not match the rounded matrix in order", i, p)
		}
	}
}

func TestRoundCostMatrixDisabled(t *testing.T) {
	m := core.NewCostMatrix(2)
	m.Set(0, 1, 3)
	m.Set(1, 0, 4)
	r, err := Round(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Matrix()
	if out.At(0, 1) != 3 || out.At(1, 0) != 4 {
		t.Fatal("k<=0 should pass values through unchanged")
	}
	if out != m {
		t.Fatal("k<=0 should share the matrix, not clone it")
	}
}

// Property: rounding to k clusters leaves at most k distinct values and
// preserves the min<=x<=max envelope.
func TestRoundValuesProperty(t *testing.T) {
	f := func(seed int64, rawK uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(rawK%10) + 1
		xs := make([]float64, 3+rng.Intn(40))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		out := roundValues(t, xs, k)
		distinct := map[float64]struct{}{}
		for _, v := range out {
			distinct[v] = struct{}{}
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return len(distinct) <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
