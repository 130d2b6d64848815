package cluster_test

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudia/internal/cloud"
	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/sketch"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
	"cloudia/internal/topology"
)

// oracleRound is the rounding build the class-grouped set replaced, kept
// as its oracle: one global cost sort of every off-diagonal pair, k-means
// over the sorted values, then every pair and cell re-assigned to its
// nearest center, giving a float64 rounded matrix and a CostPair list
// ascending by rounded cost.
func oracleRound(m *core.CostMatrix, k int) (*core.CostMatrix, []core.CostPair, *cluster.Result, error) {
	if k <= 0 || m.Size() < 2 {
		return m, m.SortedPairs(), nil, nil
	}
	pairs := m.SortedPairs()
	vals := make([]float64, len(pairs))
	for i, pr := range pairs {
		vals[i] = pr.Cost
	}
	r, err := cluster.KMeans1D(vals, k)
	if err != nil {
		return nil, nil, nil, err
	}
	out := core.NewCostMatrix(m.Size())
	for i := range pairs {
		c := r.Assign(pairs[i].Cost)
		out.Set(int(pairs[i].From), int(pairs[i].To), c)
		pairs[i].Cost = c
	}
	return out, pairs, r, nil
}

// checkAgainstOracle asserts that cluster.Round over m at k gives the
// oracle's k-means result bit for bit, the oracle's rounded matrix (by
// fingerprint and cell by cell), and the oracle's pairs in each rounded
// value class; unclustered, the pair order itself must match.
func checkAgainstOracle(t *testing.T, name string, m *core.CostMatrix, k int) {
	t.Helper()
	wantM, wantPairs, wantFit, err := oracleRound(m, k)
	if err != nil {
		t.Fatalf("%s k=%d: oracle: %v", name, k, err)
	}
	set, err := cluster.Round(m, k)
	if err != nil {
		t.Fatalf("%s k=%d: Round: %v", name, k, err)
	}
	if (wantFit == nil) != (set.Fit() == nil) {
		t.Fatalf("%s k=%d: fit presence differs from the oracle", name, k)
	}
	if wantFit != nil {
		if math.Float64bits(set.Fit().Cost) != math.Float64bits(wantFit.Cost) ||
			!slices.EqualFunc(set.Fit().Centers, wantFit.Centers, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
			t.Fatalf("%s k=%d: k-means result %v differs from the oracle's %v", name, k, set.Fit(), wantFit)
		}
	}
	n := m.Size()
	got := set.Matrix()
	if got.Fingerprint() != wantM.Fingerprint() {
		t.Fatalf("%s k=%d: rounded matrix fingerprint differs from the oracle's", name, k)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && math.Float64bits(set.At(i, j)) != math.Float64bits(wantM.At(i, j)) {
				t.Fatalf("%s k=%d: At(%d,%d) = %v, oracle %v", name, k, i, j, set.At(i, j), wantM.At(i, j))
			}
		}
	}
	if k <= 0 {
		if !slices.Equal(set.CostPairs(), wantPairs) {
			t.Fatalf("%s k=%d: unclustered pair order differs from the oracle's", name, k)
		}
	} else if slices.IsSorted(wantFit.Centers) && len(slices.Compact(slices.Clone(wantFit.Centers))) == len(wantFit.Centers) {
		// Distinct centers: (class, row, column) order is (cost, row,
		// column), a stable cost sort of the oracle's row-major pairs.
		want := slices.Clone(wantPairs)
		slices.SortStableFunc(want, func(a, b core.CostPair) int {
			if c := cmp.Compare(a.Cost, b.Cost); c != 0 {
				return c
			}
			return cmp.Compare(int(a.From)*n+int(a.To), int(b.From)*n+int(b.To))
		})
		if !slices.Equal(set.CostPairs(), want) {
			t.Fatalf("%s k=%d: clustered pair order is not (class, row, column)", name, k)
		}
	}
	// Class membership: the oracle's pairs of each rounded value, as a
	// sorted cell list, against the set's level of that value in the
	// level lists CP's descent reads.
	levels := set.Levels()
	cells, starts := set.LevelCells()
	if len(starts) != len(levels)+1 || int(starts[len(levels)]) != len(cells) {
		t.Fatalf("%s k=%d: %d level starts for %d levels and %d cells", name, k, len(starts), len(levels), len(cells))
	}
	var want []uint32
	l := 0
	for i, pr := range wantPairs {
		want = append(want, uint32(int(pr.From)*n+int(pr.To)))
		if i+1 < len(wantPairs) && wantPairs[i+1].Cost == pr.Cost {
			continue
		}
		if l >= len(levels) || levels[l] != pr.Cost {
			t.Fatalf("%s k=%d: level %d is missing or not %v", name, k, l, pr.Cost)
		}
		gotCells := slices.Clone(cells[starts[l]:starts[l+1]])
		slices.Sort(gotCells)
		slices.Sort(want)
		if !slices.Equal(gotCells, want) {
			t.Fatalf("%s k=%d: level %d (%v) holds other pairs than the oracle's class", name, k, l, pr.Cost)
		}
		want, l = want[:0], l+1
	}
	if l != len(levels) {
		t.Fatalf("%s k=%d: %d levels, the oracle has %d", name, k, len(levels), l)
	}
}

// TestRoundMatchesOracle checks the bucketed, class-grouped build against
// the old global-sort build on solver test problems, on a 1000-instance
// EC2-profile matrix, on a tie-heavy matrix, and on inputs with ties, zeros
// and values at or below sketch.MinIndexable.
func TestRoundMatchesOracle(t *testing.T) {
	ks := []int{-1, 0, 1, 3, 5, 20}
	mesh, err := core.Mesh2D(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		p, err := solvertest.Realistic(mesh, 40, solver.LongestLink, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			checkAgainstOracle(t, "realistic", p.Costs, k)
		}
	}
	ll, _, err := solvertest.PlantedLL(3, 3, 5, 0.1, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	lp, _, err := solvertest.PlantedLP(6, 4, 0.1, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		checkAgainstOracle(t, "plantedLL", ll.Costs, k)
		checkAgainstOracle(t, "plantedLP", lp.Costs, k)
	}

	// Ties, zeros and sub-MinIndexable values, all of which share
	// KMeans1D's zero bucket, next to repeated ordinary values.
	rng := rand.New(rand.NewSource(9))
	odd := core.NewCostMatrix(24)
	pool := []float64{0, math.Copysign(0, -1), sketch.MinIndexable, sketch.MinIndexable / 2, 1e-12, 0.5, 0.5, 0.25, 3, 3, 7.125}
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			if i != j {
				v := pool[rng.Intn(len(pool))]
				if rng.Intn(3) == 0 {
					v = rng.Float64() * 4
				}
				odd.Set(i, j, v)
			}
		}
	}
	for _, k := range ks {
		checkAgainstOracle(t, "odd", odd, k)
	}
	// Tie-heavy: every cost one of five values, so the unclustered pair
	// order rests on the (cost, row, column) tie-break throughout.
	ties := core.NewCostMatrix(30)
	tieVals := []float64{0.3, 0.7, 0.7000000000000001, 1.1, 2.9}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if i != j {
				ties.Set(i, j, tieVals[rng.Intn(len(tieVals))])
			}
		}
	}
	for _, k := range ks {
		checkAgainstOracle(t, "ties", ties, k)
	}
	flat := core.NewCostMatrix(5) // every off-diagonal cost 0
	for _, k := range ks {
		checkAgainstOracle(t, "zeros", flat, k)
	}
	two := core.NewCostMatrix(2)
	two.Set(0, 1, 2)
	two.Set(1, 0, 2)
	for _, k := range ks {
		checkAgainstOracle(t, "2x2", two, k)
	}

	// More than 256 classes: class ids take two bytes.
	wide := core.NewCostMatrix(40)
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if i != j {
				wide.Set(i, j, math.Exp(3*rng.NormFloat64()))
			}
		}
	}
	checkAgainstOracle(t, "wide", wide, 300)
	if set, err := cluster.Round(wide, 300); err != nil || len(set.Fit().Centers) <= 256 ||
		set.Bytes() < 2*40*40 {
		t.Fatalf("wide: %v, want more than 256 classes held in two-byte ids", err)
	}

	if testing.Short() {
		return
	}
	big := ec2Matrix(t, 1000)
	for _, k := range []int{0, 20} {
		checkAgainstOracle(t, "ec2-1000", big, k)
	}
}

// ec2Matrix returns an EC2-profile mean RTT matrix over n instances with
// every link perturbed by up to ±5%, as measured matrices are.
func ec2Matrix(t *testing.T, n int) *core.CostMatrix {
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
	m := cloud.MeanRTTMatrix(dc, inst)
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, m.At(i, j)*(0.95+0.1*rng.Float64()))
			}
		}
	}
	return m
}
