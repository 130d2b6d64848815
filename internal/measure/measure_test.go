package measure

import (
	"slices"
	"testing"

	"cloudia/internal/cloud"
	"cloudia/internal/stats"
	"cloudia/internal/topology"
)

// testFleet allocates n instances on a fresh EC2-profile datacenter.
func testFleet(t *testing.T, n int, seed int64) (*topology.Datacenter, []cloud.Instance) {
	t.Helper()
	dc, err := topology.New(topology.EC2Profile(), seed)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	p, err := cloud.NewProvider(dc, 0.6, seed+1)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	insts, err := p.RunInstances(n)
	if err != nil {
		t.Fatalf("RunInstances: %v", err)
	}
	return dc, insts
}

func TestOptionsValidation(t *testing.T) {
	dc, insts := testFleet(t, 3, 1)
	if _, err := Run(dc, insts, Options{Scheme: "bogus", DurationMS: 10}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if _, err := Run(dc, insts, Options{Scheme: Token}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Run(dc, insts[:1], Options{Scheme: Token, DurationMS: 10}); err == nil {
		t.Fatal("single instance accepted")
	}
}

func TestCircleRoundsCoverage(t *testing.T) {
	for _, n := range []int{2, 4, 5, 8, 9} {
		rounds := circleRounds(n)
		seen := make(map[[2]int]int)
		for _, round := range rounds {
			inRound := make(map[int]bool)
			for _, pr := range round {
				a, b := pr[0], pr[1]
				if a == b || a >= n || b >= n || a < 0 || b < 0 {
					t.Fatalf("n=%d: invalid pair %v", n, pr)
				}
				if inRound[a] || inRound[b] {
					t.Fatalf("n=%d: player repeated within a round", n)
				}
				inRound[a], inRound[b] = true, true
				if a > b {
					a, b = b, a
				}
				seen[[2]int{a, b}]++
			}
		}
		want := n * (n - 1) / 2
		if len(seen) != want {
			t.Fatalf("n=%d: covered %d pairs, want %d", n, len(seen), want)
		}
		for pr, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: pair %v covered %d times", n, pr, c)
			}
		}
	}
}

// circleRounds is the oracle for stagePairs: the circle-method round-robin
// tournament schedule over n players, built whole by rotating a ring — a
// list of rounds, each a set of disjoint pairs, jointly covering every
// unordered pair exactly once. For odd n one player sits out each round.
func circleRounds(n int) [][][2]int {
	players := n
	odd := n%2 == 1
	if odd {
		players++ // add a bye
	}
	rounds := make([][][2]int, 0, players-1)
	ring := make([]int, players)
	for i := range ring {
		ring[i] = i
	}
	for r := 0; r < players-1; r++ {
		var pairs [][2]int
		for k := 0; k < players/2; k++ {
			a, b := ring[k], ring[players-1-k]
			if odd && (a == players-1 || b == players-1) {
				continue // bye
			}
			pairs = append(pairs, [2]int{a, b})
		}
		rounds = append(rounds, pairs)
		// Rotate all but the first element.
		last := ring[players-1]
		copy(ring[2:], ring[1:players-1])
		ring[1] = last
	}
	return rounds
}

// TestStagePairsMatchCircleRounds checks that the staged driver's
// per-round schedule is the whole-tournament table, round by round and pair
// by pair, so the probe order is unchanged.
func TestStagePairsMatchCircleRounds(t *testing.T) {
	ns := []int{330, 331}
	for n := 2; n <= 64; n++ {
		ns = append(ns, n)
	}
	var got [][2]int
	for _, n := range ns {
		want := circleRounds(n)
		if rounds := n + n%2 - 1; len(want) != rounds {
			t.Fatalf("n=%d: oracle has %d rounds, want %d", n, len(want), rounds)
		}
		for r, pairs := range want {
			got = stagePairs(got[:0], n, r)
			if !slices.Equal(got, pairs) {
				t.Fatalf("n=%d round %d: stagePairs = %v, want %v", n, r, got, pairs)
			}
		}
	}
}

func TestTokenPassingSerial(t *testing.T) {
	dc, insts := testFleet(t, 6, 2)
	res, err := Run(dc, insts, Options{Scheme: Token, DurationMS: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSamples == 0 {
		t.Fatal("no samples collected")
	}
	// Sequential: roughly duration / (RTT + token pass) samples; certainly
	// far fewer than a parallel scheme would collect.
	if res.TotalSamples > 1667 { // ~500 ms / 0.3 ms per serial round trip
		t.Fatalf("token collected %d samples; too many to be serial", res.TotalSamples)
	}
}

func TestStagedCoversAllLinksOverTime(t *testing.T) {
	dc, insts := testFleet(t, 6, 4)
	res, err := Run(dc, insts, Options{Scheme: Staged, DurationMS: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSamples() == 0 {
		t.Fatal("staged left some ordered pair unsampled after both sweeps")
	}
}

func TestUncoordinatedParallelThroughput(t *testing.T) {
	dc, insts := testFleet(t, 10, 6)
	tok, err := Run(dc, insts, Options{Scheme: Token, DurationMS: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	unc, err := Run(dc, insts, Options{Scheme: Uncoordinated, DurationMS: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// n instances probing in parallel must collect several times the
	// samples of the serial token scheme in the same budget.
	if unc.TotalSamples < 3*tok.TotalSamples {
		t.Fatalf("uncoordinated %d samples vs token %d; expected ~n-fold parallelism",
			unc.TotalSamples, tok.TotalSamples)
	}
}

func TestMeanEstimatesApproachGroundTruth(t *testing.T) {
	dc, insts := testFleet(t, 8, 8)
	res, err := Run(dc, insts, Options{Scheme: Staged, DurationMS: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	truth := cloud.MeanRTTMatrix(dc, insts)
	est := res.MeanMatrix()
	// Compare normalized vectors (the paper's methodology): jitter shifts
	// all links by the same expected amount, which normalization cancels.
	tv := stats.NormalizeUnit(truth.OffDiagonal())
	ev := stats.NormalizeUnit(est.OffDiagonal())
	errs, err := stats.RelativeErrors(ev, tv)
	if err != nil {
		t.Fatal(err)
	}
	med, err := stats.Percentile(errs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.10 {
		t.Fatalf("median normalized relative error %.3f; staged estimates too far from truth", med)
	}
}

func TestStagedMoreAccurateThanUncoordinated(t *testing.T) {
	dc, insts := testFleet(t, 12, 10)
	truth := cloud.MeanRTTMatrix(dc, insts)
	tv := stats.NormalizeUnit(truth.OffDiagonal())

	errOf := func(s Scheme) float64 {
		res, err := Run(dc, insts, Options{Scheme: s, DurationMS: 4000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ev := stats.NormalizeUnit(res.MeanMatrix().OffDiagonal())
		errs, err := stats.RelativeErrors(ev, tv)
		if err != nil {
			t.Fatal(err)
		}
		p90, err := stats.Percentile(errs, 90)
		if err != nil {
			t.Fatal(err)
		}
		return p90
	}
	staged := errOf(Staged)
	unc := errOf(Uncoordinated)
	if staged >= unc {
		t.Fatalf("staged p90 error %.4f >= uncoordinated %.4f; Fig. 4 ordering violated", staged, unc)
	}
}

func TestMetricMatricesOrdered(t *testing.T) {
	dc, insts := testFleet(t, 6, 14)
	res, err := Run(dc, insts, Options{Scheme: Staged, DurationMS: 4000, Seed: 15, TailAlpha: DefaultTailAlpha})
	if err != nil {
		t.Fatal(err)
	}
	mean := res.MeanMatrix()
	msd := res.MeanPlusStdMatrix()
	p99, err := res.TailMatrix(99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			if res.SampleCount(i, j) < 2 {
				continue
			}
			if msd.At(i, j) < mean.At(i, j) {
				t.Fatalf("mean+SD < mean at (%d,%d)", i, j)
			}
			if p99.At(i, j) < mean.At(i, j)-1e-9 && res.SampleCount(i, j) >= 10 {
				t.Fatalf("p99 %.4f < mean %.4f at (%d,%d) with %d samples",
					p99.At(i, j), mean.At(i, j), i, j, res.SampleCount(i, j))
			}
		}
	}
}

func TestResultMatricesValidate(t *testing.T) {
	dc, insts := testFleet(t, 5, 16)
	res, err := Run(dc, insts, Options{Scheme: Uncoordinated, DurationMS: 500, Seed: 17, TailAlpha: DefaultTailAlpha})
	if err != nil {
		t.Fatal(err)
	}
	p99, err := res.TailMatrix(99)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []interface{ Validate() error }{res.MeanMatrix(), res.MeanPlusStdMatrix(), p99} {
		if err := m.Validate(); err != nil {
			t.Fatalf("matrix invalid: %v", err)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	dc, insts := testFleet(t, 6, 18)
	run := func() int64 {
		res, err := Run(dc, insts, Options{Scheme: Uncoordinated, DurationMS: 300, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalSamples
	}
	if run() != run() {
		t.Fatal("measurement runs not deterministic")
	}
}
