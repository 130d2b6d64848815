// Package cloudia's root benchmark file exposes one testing.B target per
// paper figure (BenchmarkFigNN...) plus the ablations and a handful of
// micro-benchmarks for the hot components. Figure benchmarks run the
// experiment once per b.N iteration at Quick scale so `go test -bench=.`
// stays tractable; run `cmd/cloudia-bench -all` for the full-scale figures
// recorded in EXPERIMENTS.md.
package cloudia_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/bench"
	"cloudia/internal/cloud"
	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/netsim"
	"cloudia/internal/par"
	"cloudia/internal/serve"
	"cloudia/internal/solver"
	"cloudia/internal/solver/cp"
	"cloudia/internal/solver/greedy"
	"cloudia/internal/solver/mip"
	"cloudia/internal/solver/random"
	"cloudia/internal/topology"
	"cloudia/internal/wal"
	"cloudia/internal/workload"
)

// benchFigure runs one registered experiment per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := bench.Run(id, bench.Options{Seed: 42, Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(fig.Series) == 0 {
			b.Fatalf("%s: empty figure", id)
		}
	}
}

func BenchmarkFig01LatencyCDF(b *testing.B)             { benchFigure(b, "fig01") }
func BenchmarkFig02LatencyStability(b *testing.B)       { benchFigure(b, "fig02") }
func BenchmarkFig04MeasurementError(b *testing.B)       { benchFigure(b, "fig04") }
func BenchmarkFig05MeasurementConvergence(b *testing.B) { benchFigure(b, "fig05") }
func BenchmarkFig06CPClusters(b *testing.B)             { benchFigure(b, "fig06") }
func BenchmarkFig07CPvsMIP(b *testing.B)                { benchFigure(b, "fig07") }
func BenchmarkFig08CPScalability(b *testing.B)          { benchFigure(b, "fig08") }
func BenchmarkFig09LPNDPClusters(b *testing.B)          { benchFigure(b, "fig09") }
func BenchmarkFig10MetricCorrelation(b *testing.B)      { benchFigure(b, "fig10") }
func BenchmarkFig11MetricImprovement(b *testing.B)      { benchFigure(b, "fig11") }
func BenchmarkFig12OverallEffectiveness(b *testing.B)   { benchFigure(b, "fig12") }
func BenchmarkFig13OverAllocation(b *testing.B)         { benchFigure(b, "fig13") }
func BenchmarkFig14LightweightLL(b *testing.B)          { benchFigure(b, "fig14") }
func BenchmarkFig15LightweightLP(b *testing.B)          { benchFigure(b, "fig15") }
func BenchmarkFig16IPDistance(b *testing.B)             { benchFigure(b, "fig16") }
func BenchmarkFig17HopCount(b *testing.B)               { benchFigure(b, "fig17") }
func BenchmarkFig18GCEHeterogeneity(b *testing.B)       { benchFigure(b, "fig18") }
func BenchmarkFig19GCEStability(b *testing.B)           { benchFigure(b, "fig19") }
func BenchmarkFig20RackspaceHeterogeneity(b *testing.B) { benchFigure(b, "fig20") }
func BenchmarkFig21RackspaceStability(b *testing.B)     { benchFigure(b, "fig21") }

func BenchmarkAblationDegreeFilter(b *testing.B) { benchFigure(b, "ablation-degreefilter") }
func BenchmarkAblationContention(b *testing.B)   { benchFigure(b, "ablation-contention") }
func BenchmarkAblationSA(b *testing.B)           { benchFigure(b, "ablation-sa") }
func BenchmarkAblationClusterK(b *testing.B)     { benchFigure(b, "ablation-clusterk") }

func BenchmarkExtensionRedeploy(b *testing.B)  { benchFigure(b, "extension-redeploy") }
func BenchmarkExtensionOverlap(b *testing.B)   { benchFigure(b, "extension-overlap") }
func BenchmarkExtensionWeighted(b *testing.B)  { benchFigure(b, "extension-weighted") }
func BenchmarkExtensionCostModel(b *testing.B) { benchFigure(b, "extension-costmodel") }
func BenchmarkExtensionBandwidth(b *testing.B) { benchFigure(b, "extension-bandwidth") }

// --- Component micro-benchmarks ---

func benchProblem(b *testing.B, nodes, instances int) *solver.Problem {
	b.Helper()
	dc, err := topology.New(topology.EC2Profile(), 7)
	if err != nil {
		b.Fatal(err)
	}
	prov, err := cloud.NewProvider(dc, 0.6, 8)
	if err != nil {
		b.Fatal(err)
	}
	insts, err := prov.RunInstances(instances)
	if err != nil {
		b.Fatal(err)
	}
	rows := 1
	for r := 1; r*r <= nodes; r++ {
		if nodes/r >= r {
			rows = r
		}
	}
	g, err := core.Mesh2D(rows, nodes/rows)
	if err != nil {
		b.Fatal(err)
	}
	p, err := solver.NewProblem(g, cloud.MeanRTTMatrix(dc, insts), solver.LongestLink)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkLongestLinkEval(b *testing.B) {
	p := benchProblem(b, 90, 100)
	d := core.Identity(90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Cost(d)
	}
}

func BenchmarkLongestPathEval(b *testing.B) {
	g, err := core.AggregationTree(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m := core.NewCostMatrix(45)
	for i := 0; i < 45; i++ {
		for j := 0; j < 45; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	p, err := solver.NewProblem(g, m, solver.LongestPath)
	if err != nil {
		b.Fatal(err)
	}
	d := core.Identity(g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Cost(d)
	}
}

func BenchmarkGreedyG2(b *testing.B) {
	p := benchProblem(b, 45, 50)
	s := greedy.New(greedy.G2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(p, solver.Budget{Nodes: 1 << 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkR1Thousand(b *testing.B) {
	p := benchProblem(b, 45, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := random.NewR1(1000, int64(i)).Solve(p, solver.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPPerNodeBudget(b *testing.B) {
	p := benchProblem(b, 45, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.New(20, int64(i)).Solve(p, solver.Budget{Nodes: 20_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPThresholdDescent runs one full CP threshold descent at the
// paper's solver-experiment scale (100 nodes on 150 instances, k=20 cost
// clusters) under a fixed node budget. This is the headline benchmark for the
// persistent descent engine: incremental threshold-graph tightening plus the
// zero-alloc search arena.
func BenchmarkCPThresholdDescent(b *testing.B) {
	p := deltaBenchProblem(b, solver.LongestLink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.New(20, int64(i)).Solve(p, solver.Budget{Nodes: 50_000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMIPPerNodeBudget(b *testing.B) {
	p := benchProblem(b, 45, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mip.New(20, int64(i)).Solve(p, solver.Budget{Nodes: 20_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Delta-evaluator micro-benchmarks (100 nodes, 150 instances) ---
//
// BenchmarkDeltaEval* measure ns per local-search move evaluation at the
// quick scale: the DeltaEvaluator variants price a swap through incremental
// O(deg) bookkeeping, while the FullRecompute baselines pay the O(E) or
// O(V+E) full cost evaluation the SA inner loop used before. The move
// schedule is pre-generated outside the timed loop so both sides measure
// pure move evaluation. Run with -benchmem: the delta variants must stay at
// 0 allocs/op.

const deltaBenchInstances = 150

// deltaBenchMatrix builds the 150-instance cost matrix shared by the
// evaluator benchmarks.
func deltaBenchMatrix(rng *rand.Rand) *core.CostMatrix {
	m := core.NewCostMatrix(deltaBenchInstances)
	for i := 0; i < deltaBenchInstances; i++ {
		for j := 0; j < deltaBenchInstances; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	return m
}

// deltaBenchProblem builds the default 100-node LL benchmark problem: a
// sparse random communication graph (spanning path plus 4n random edges,
// the shape of the paper's solver experiments) over 150 instances.
func deltaBenchProblem(b *testing.B, obj solver.Objective) *solver.Problem {
	b.Helper()
	const nodes = 100
	rng := rand.New(rand.NewSource(17))
	g := core.NewGraph(nodes)
	for v := 0; v+1 < nodes; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k < 4*nodes; k++ {
		x, y := rng.Intn(nodes), rng.Intn(nodes)
		if x > y {
			x, y = y, x
		}
		if x != y && !g.HasEdge(x, y) {
			if err := g.AddEdge(x, y); err != nil {
				b.Fatal(err)
			}
		}
	}
	p, err := solver.NewProblem(g, deltaBenchMatrix(rng), obj)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// kvstoreBenchProblem is the paper's key-value store workload (Sect.
// 6.1.3): a dense complete-bipartite graph between 30 front-ends and 70
// storage nodes.
func kvstoreBenchProblem(b *testing.B) *solver.Problem {
	b.Helper()
	g, err := core.Bipartite(30, 70)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	p, err := solver.NewProblem(g, deltaBenchMatrix(rng), solver.LongestLink)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// aggregationBenchProblem is the paper's Class-2 aggregation workload: a
// 100-node two-level aggregation tree (Sect. 6.1.2) under the longest-path
// objective.
func aggregationBenchProblem(b *testing.B) *solver.Problem {
	b.Helper()
	g, err := core.TwoLevelAggregation(10, 89)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	p, err := solver.NewProblem(g, deltaBenchMatrix(rng), solver.LongestPath)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchSwapSchedule pre-generates the swap move schedule so the timed loops
// measure move evaluation, not random number generation.
func benchSwapSchedule(n int) [][2]int {
	rng := rand.New(rand.NewSource(23))
	moves := make([][2]int, 8192)
	for i := range moves {
		x := rng.Intn(n)
		y := rng.Intn(n - 1)
		if y >= x {
			y++
		}
		moves[i] = [2]int{x, y}
	}
	return moves
}

// benchDeltaSwap prices b.N swap proposals through the evaluator with the
// local-search acceptance pattern (commit non-worsening moves, reject the
// rest). The explicit GC fence before the timed region keeps background
// collection triggered by the heavy setup (the 150x150 matrix and the
// evaluator's incidence structures) from leaking allocation bytes into the
// tiny measured window — previously BenchmarkDeltaEvalLLKVStoreSwap
// reported ~2.9 KB/op against 0 allocs/op from exactly that.
func benchDeltaSwap(b *testing.B, p *solver.Problem) {
	rng := rand.New(rand.NewSource(29))
	ev := solver.NewDeltaEvaluator(p, solver.RandomDeployment(p, rng))
	moves := benchSwapSchedule(p.NumNodes())
	cur := ev.Cost()
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i%len(moves)]
		if cand := ev.SwapCost(mv[0], mv[1]); cand <= cur {
			cur = cand
			ev.Commit()
		} else {
			ev.Reject()
		}
	}
}

// benchFullSwap is the pre-evaluator baseline: mutate the deployment, fully
// recompute the cost, and swap back on rejection. GC fence as in
// benchDeltaSwap, so the two sides report comparable steady-state numbers.
func benchFullSwap(b *testing.B, p *solver.Problem) {
	rng := rand.New(rand.NewSource(29))
	d := solver.RandomDeployment(p, rng)
	moves := benchSwapSchedule(p.NumNodes())
	cur := p.Cost(d)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i%len(moves)]
		d[mv[0]], d[mv[1]] = d[mv[1]], d[mv[0]]
		if cand := p.Cost(d); cand <= cur {
			cur = cand
		} else {
			d[mv[0]], d[mv[1]] = d[mv[1]], d[mv[0]]
		}
	}
}

func BenchmarkDeltaEvalLLSwap(b *testing.B) {
	benchDeltaSwap(b, deltaBenchProblem(b, solver.LongestLink))
}

func BenchmarkDeltaEvalLLFullRecompute(b *testing.B) {
	benchFullSwap(b, deltaBenchProblem(b, solver.LongestLink))
}

func BenchmarkDeltaEvalLLKVStoreSwap(b *testing.B) {
	benchDeltaSwap(b, kvstoreBenchProblem(b))
}

func BenchmarkDeltaEvalLLKVStoreFullRecompute(b *testing.B) {
	benchFullSwap(b, kvstoreBenchProblem(b))
}

func BenchmarkDeltaEvalLPSwap(b *testing.B) {
	benchDeltaSwap(b, aggregationBenchProblem(b))
}

func BenchmarkDeltaEvalLPFullRecompute(b *testing.B) {
	benchFullSwap(b, aggregationBenchProblem(b))
}

// BenchmarkDeltaEvalPortfolio runs one full parallel portfolio search under
// a wall-clock budget, exercising the goroutine-per-member runner end to
// end.
func BenchmarkDeltaEvalPortfolio(b *testing.B) {
	p := deltaBenchProblem(b, solver.LongestLink)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf := advisor.NewPortfolio(20, int64(i))
		if _, err := pf.Solve(p, solver.Budget{Time: 50 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans1D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans1D(xs, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- 1000-instance tier (Sect. 6.3 scale x ~7) ---
//
// The paper's solver experiments stop at 150 instances; the benchmarks
// below probe the preprocessing and portfolio layers at 1000 instances /
// 500 nodes, the scale the shared Prep cache and the capped-memory k-means
// exist for.

// BenchmarkKMeans1DLarge clusters the ~10^6 off-diagonal values of a
// 1000-instance cost matrix into the paper's k=20. Binning the values into
// log-γ buckets dominates; the DP then runs over about 900 buckets.
func BenchmarkKMeans1DLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000*999)
	for i := range xs {
		xs[i] = 0.2 + rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans1D(xs, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// portfolio1000Problem builds the 1000-instance / 500-node LL problem: a
// sparse random communication graph (spanning path plus 4n extra edges,
// the shape of the paper's solver experiments) over a uniform cost matrix.
func portfolio1000Problem(b testing.TB) *solver.Problem {
	b.Helper()
	const nodes = 500
	const instances = 1000
	rng := rand.New(rand.NewSource(17))
	g := core.NewGraph(nodes)
	for v := 0; v+1 < nodes; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k < 4*nodes; k++ {
		x, y := rng.Intn(nodes), rng.Intn(nodes)
		if x > y {
			x, y = y, x
		}
		if x != y && !g.HasEdge(x, y) {
			if err := g.AddEdge(x, y); err != nil {
				b.Fatal(err)
			}
		}
	}
	m := core.NewCostMatrix(instances)
	for i := 0; i < instances; i++ {
		for j := 0; j < instances; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	p, err := solver.NewProblem(g, m, solver.LongestLink)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkPortfolio1000 races the full advisor portfolio on the
// 1000-instance problem under a 2-second wall-clock budget. Every op must
// stay well inside a 10-second ceiling: the first op additionally pays the
// one-time Prep artifacts (k-means over ~10^6 link costs, pair sort,
// cheapest rows), which later ops — like repeated advisor calls on a live
// problem — reuse from the shared cache.
func BenchmarkPortfolio1000(b *testing.B) {
	p := portfolio1000Problem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf := advisor.NewPortfolio(20, int64(i))
		res, err := pf.Solve(p, solver.Budget{Time: 2 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if res.Elapsed > 10*time.Second {
			// Don't hard-fail: on a loaded shared runner this is an
			// environment hiccup, and the recorded ns/op already exposes it.
			b.Logf("portfolio run exceeded the 10s ceiling: %v", res.Elapsed)
		}
	}
}

// BenchmarkStreamingAdvise measures the streaming pipeline's
// time-to-first-advice on the 1000-instance tier. A producer goroutine
// plays a measurement of the 1000-instance matrix in real time — 8 epochs,
// one every 125 ms, each maturing one eighth of the rows from a noisy
// initial estimate to their final values (the matrix batch measurement
// would deliver only at the end) — while advisor.SolveStream interleaves
// warm-started portfolio rounds against the epochs as they land. At this
// scale the dominant solve cost is the first-run Prep (k-means + pair sort
// over ~10^6 link costs, seconds); streaming starts it at the first epoch,
// overlapped with the rest of the measurement, which is exactly the
// "compute Prep at measurement time" item from ROADMAP.
//
// Reported metrics (recorded in BENCH_PR4.json):
//
//   - first-advice-ms/op: wall-clock from measurement start to the first
//     feasible advice.
//   - batch-total-ms/op: measurement window plus a cold batch portfolio
//     solve of the same total budget on the final matrix — the earliest
//     the batch pipeline produces anything. First advice is expected
//     strictly below it; since both sides are live wall-clock timings the
//     comparison is logged rather than asserted (a loaded runner could
//     flip it without a code regression), and the recorded trajectory
//     (BENCH_PR4.json) carries the evidence.
//   - final-cost-ratio/op: streaming's final cost over the batch solve's —
//     what the early advice trades in final quality (~1.0 means nothing).
func BenchmarkStreamingAdvise(b *testing.B) {
	p := portfolio1000Problem(b)
	const (
		instances     = 1000
		epochs        = 8
		epochPeriodMS = 125
		roundBudget   = 45 * time.Millisecond
	)
	measurementMS := float64(epochs * epochPeriodMS)

	// The initial estimate: final values perturbed by deterministic
	// multiplicative noise, refined row-window by row-window per epoch.
	noisy := func(i, j int) float64 {
		h := uint64(i*instances+j) * 0x9e3779b97f4a7c15
		h ^= h >> 33
		return p.Costs.At(i, j) * (0.7 + 0.6*float64(h%1024)/1024)
	}

	var firstMS, batchMS, ratioSum float64
	for it := 0; it < b.N; it++ {
		ch := make(chan measure.Epoch, epochs)
		go func() {
			defer close(ch)
			mm := core.NewMutableCostMatrix(instances)
			for i := 0; i < instances; i++ {
				for j := 0; j < instances; j++ {
					if i != j {
						mm.Set(i, j, noisy(i, j))
					}
				}
			}
			for e := 1; e <= epochs; e++ {
				// Rows [lo, hi) mature to their final values this epoch.
				lo, hi := (e-1)*instances/epochs, e*instances/epochs
				for i := lo; i < hi; i++ {
					for j := 0; j < instances; j++ {
						if i != j {
							mm.Set(i, j, p.Costs.At(i, j))
						}
					}
				}
				m, changed := mm.Snapshot()
				ch <- measure.Epoch{
					Index: e, AtMS: float64(e * epochPeriodMS),
					Final: e == epochs, Matrix: m, ChangedRows: changed,
				}
				if e < epochs {
					time.Sleep(epochPeriodMS * time.Millisecond)
				}
			}
		}()

		out, err := advisor.SolveStream(ch, advisor.StreamSolveConfig{
			Graph:         p.Graph,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
			RoundBudget:   solver.Budget{Time: roundBudget},
			Seed:          int64(it),
		})
		if err != nil {
			b.Fatal(err)
		}
		first := float64(out.FirstAdvice) / float64(time.Millisecond)
		firstMS += first

		// Batch comparator: a fresh problem over the final matrix (cold
		// Prep, as batch advising would pay after its measurement barrier)
		// solved with the same total budget.
		bp, err := solver.NewProblem(p.Graph, out.Problem.Costs, solver.LongestLink)
		if err != nil {
			b.Fatal(err)
		}
		batchStart := time.Now()
		batch, err := advisor.NewPortfolio(20, int64(it)).Solve(bp, solver.Budget{Time: epochs * roundBudget})
		if err != nil {
			b.Fatal(err)
		}
		batchTotal := measurementMS + float64(time.Since(batchStart))/float64(time.Millisecond)
		batchMS += batchTotal
		if first >= batchTotal {
			// Don't hard-fail: both sides are live wall-clock timings, so a
			// loaded shared runner can flip the comparison without any code
			// regression (cf. BenchmarkPortfolio1000); the recorded metrics
			// expose it.
			b.Logf("first advice after %.1f ms, not below the %.1f ms batch pipeline", first, batchTotal)
		}
		ratioSum += out.Cost / bp.Cost(batch.Deployment)
	}
	b.ReportMetric(firstMS/float64(b.N), "first-advice-ms/op")
	b.ReportMetric(batchMS/float64(b.N), "batch-total-ms/op")
	b.ReportMetric(ratioSum/float64(b.N), "final-cost-ratio/op")
}

// BenchmarkStreamingP99Advise measures the tail-latency streaming pipeline
// on the 1000-instance tier: the same epoch cadence as
// BenchmarkStreamingAdvise, but each epoch also publishes a p99 tail
// matrix (as measure.Stream does from its per-link quantile sketches) and
// the advisor optimizes that percentile matrix, tie-breaking on the mean.
// Every epoch's problem is built fresh over the tail matrix, with the mean
// as its tie-break matrix; the benchmark records how much the second
// matrix costs over mean-only streaming.
//
// Reported metrics (recorded in BENCH_PR9.json):
//
//   - first-advice-ms/op: wall-clock from measurement start to the first
//     feasible p99-optimal advice.
//   - rounds/op: epochs consumed (the producer does not sleep, so all 8
//     epochs are solved back to back).
func BenchmarkStreamingP99Advise(b *testing.B) {
	p := portfolio1000Problem(b)
	const (
		instances   = 1000
		epochs      = 8
		roundBudget = 45 * time.Millisecond
	)

	// Deterministic per-link noise for the initial estimate, and a
	// deterministic tail spread: the "true" p99 sits 10-60% above the mean,
	// varying by link, so the percentile matrix orders links differently
	// from the mean matrix and the p99 optimum is a genuinely different
	// problem.
	hash := func(i, j int) float64 {
		h := uint64(i*instances+j) * 0x9e3779b97f4a7c15
		h ^= h >> 33
		return float64(h%1024) / 1024
	}
	tailOf := func(i, j, final float64) float64 { return final * (1.1 + 0.5*hash(int(i), int(j))) }

	var firstMS, rounds float64
	for it := 0; it < b.N; it++ {
		ch := make(chan measure.Epoch, epochs)
		go func() {
			defer close(ch)
			mm := core.NewMutableCostMatrix(instances)
			tm := core.NewMutableCostMatrix(instances)
			for i := 0; i < instances; i++ {
				for j := 0; j < instances; j++ {
					if i != j {
						noisy := p.Costs.At(i, j) * (0.7 + 0.6*hash(i, j))
						mm.Set(i, j, noisy)
						tm.Set(i, j, tailOf(float64(i), float64(j), noisy))
					}
				}
			}
			for e := 1; e <= epochs; e++ {
				lo, hi := (e-1)*instances/epochs, e*instances/epochs
				for i := lo; i < hi; i++ {
					for j := 0; j < instances; j++ {
						if i != j {
							final := p.Costs.At(i, j)
							mm.Set(i, j, final)
							tm.Set(i, j, tailOf(float64(i), float64(j), final))
						}
					}
				}
				ep := measure.PublishEpoch(mm, float64(e), e == epochs, 0)
				ep.Tails = []measure.TailMatrix{measure.PublishTail(tm, 99)}
				ch <- ep
			}
		}()

		out, err := advisor.SolveStream(ch, advisor.StreamSolveConfig{
			Graph:         p.Graph,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink, Metric: advisor.MetricP99},
			RoundBudget:   solver.Budget{Time: roundBudget},
			Seed:          int64(it),
		})
		if err != nil {
			b.Fatal(err)
		}
		firstMS += float64(out.FirstAdvice) / float64(time.Millisecond)
		rounds += float64(len(out.Rounds))
	}
	b.ReportMetric(firstMS/float64(b.N), "first-advice-ms/op")
	b.ReportMetric(rounds/float64(b.N), "rounds/op")
}

// BenchmarkShardedServe measures what the serving layer's content-addressed
// Prep cache buys a fleet: N tenants advising over one shared 1000-instance
// matrix (the fleet-re-advising scenario — one published measurement, many
// problems), served by the sharded server versus each tenant running the
// unsharded streaming path sequentially. Every tenant advises twice, in
// the daemon's job shape: one job over the matrix, then a second whose
// WarmStart is the first job's deployment. The solver is node-budgeted CP,
// so both sides are deterministic and the served deployments must be
// bit-equal to the unsharded ones — the speedup comes only from sharing
// the one-time Prep artifacts (k-means over ~10^6 link costs + the pair
// sort) across the fleet and from shard parallelism, never from answering
// differently.
//
// Reported metrics (recorded in BENCH_PR5.json, before jobs were one
// matrix and advised twice):
//
//   - sequential-ms/op: N tenants' two unsharded SolveStream calls, run
//     back to back, each call paying its own cold Prep.
//   - sharded-ms/op: the same 2N jobs through serve.Server with a shared
//     cache (makespan from first Submit to last Wait).
//   - speedup/op: sequential over sharded; the Prep cache hits make this
//     >= 2x (acceptance bar).
func BenchmarkShardedServe(b *testing.B) {
	p := portfolio1000Problem(b)
	const tenants = 4
	budget := solver.Budget{Nodes: 30_000}
	final := func() <-chan measure.Epoch {
		ch := make(chan measure.Epoch, 1)
		ch <- measure.Epoch{Index: 1, Final: true, Matrix: p.Costs}
		close(ch)
		return ch
	}
	job := func(tn int, seed int64, warm core.Deployment) serve.Job {
		return serve.Job{
			Tenant:        fmt.Sprintf("tenant-%d", tn),
			Graph:         p.Graph,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
			Matrix:        p.Costs,
			SolverName:    "cp",
			RoundBudget:   budget,
			Seed:          seed,
			WarmStart:     warm,
		}
	}

	var seqMS, shardMS, speedup float64
	for it := 0; it < b.N; it++ {
		// Unsharded comparator: sequential per-tenant streaming solves, the
		// second warm-started from the first.
		seqDeps := make([][2]core.Deployment, tenants)
		seqStart := time.Now()
		for tn := 0; tn < tenants; tn++ {
			var warm core.Deployment
			for k := 0; k < 2; k++ {
				out, err := advisor.SolveStream(final(), advisor.StreamSolveConfig{
					Graph:         p.Graph,
					ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
					SolverName:    "cp",
					RoundBudget:   budget,
					Seed:          int64(1000*it + 10*tn + k),
					WarmStart:     warm,
				})
				if err != nil {
					b.Fatal(err)
				}
				seqDeps[tn][k], warm = out.Deployment, out.Deployment
			}
		}
		seq := float64(time.Since(seqStart)) / float64(time.Millisecond)

		// Sharded: same jobs, shared cache, makespan over the fleet. Each
		// tenant submits its second job once the first has answered.
		srv := serve.New(serve.Config{Shards: tenants})
		shardStart := time.Now()
		hits := make([]int, tenants)
		errs := make([]error, tenants)
		var wg sync.WaitGroup
		for tn := 0; tn < tenants; tn++ {
			wg.Add(1)
			go func(tn int) {
				defer wg.Done()
				var warm core.Deployment
				for k := 0; k < 2; k++ {
					tk, err := srv.Submit(job(tn, int64(1000*it+10*tn+k), warm))
					if err != nil {
						errs[tn] = err
						return
					}
					res := tk.Wait()
					if res.Err != nil {
						errs[tn] = res.Err
						return
					}
					hits[tn] += res.CacheHits
					if !slices.Equal(res.Outcome.Deployment, seqDeps[tn][k]) {
						errs[tn] = fmt.Errorf("tenant %d job %d: served deployment differs from the unsharded path", tn, k)
						return
					}
					warm = res.Outcome.Deployment
				}
			}(tn)
		}
		wg.Wait()
		shard := float64(time.Since(shardStart)) / float64(time.Millisecond)
		srv.Close()
		total := 0
		for tn := 0; tn < tenants; tn++ {
			if errs[tn] != nil {
				b.Fatal(errs[tn])
			}
			total += hits[tn]
		}
		if total != 2*tenants-1 {
			b.Fatalf("cross-tenant cache hits = %d, want %d (single-flight compute, rest adopt)", total, 2*tenants-1)
		}
		seqMS += seq
		shardMS += shard
		speedup += seq / shard
	}
	b.ReportMetric(seqMS/float64(b.N), "sequential-ms/op")
	b.ReportMetric(shardMS/float64(b.N), "sharded-ms/op")
	b.ReportMetric(speedup/float64(b.N), "speedup/op")
}

// skewedTenants returns one hot tenant name plus `lights` light tenant
// names that all hash to shard 0 of a `shards`-wide server (the hash is
// Server.shardFor's: fnv32a over the tenant name and a NUL byte). This is
// the adversarial skew static sharding cannot rebalance: every tenant homes
// to the same worker while the others sit idle.
func skewedTenants(b *testing.B, shards, lights int) (hot string, light []string) {
	b.Helper()
	home := func(tenant string) int {
		h := fnv.New32a()
		h.Write([]byte(tenant))
		h.Write([]byte{0})
		return int(h.Sum32() % uint32(shards))
	}
	for i := 0; hot == ""; i++ {
		if name := fmt.Sprintf("hot-%d", i); home(name) == 0 {
			hot = name
		}
	}
	for i := 0; len(light) < lights; i++ {
		if name := fmt.Sprintf("light-%d", i); home(name) == 0 {
			light = append(light, name)
		}
	}
	return hot, light
}

// BenchmarkSkewedServe is the work-stealing ablation: one hot tenant
// advising four times in a row plus three light tenants advising once,
// every tenant hash-homed to shard 0 of a two-shard server. Jobs take the
// daemon's shape: one shared mid-size matrix each, and each of the hot
// tenant's jobs after the first carries its predecessor's deployment as
// WarmStart (so it is submitted when that one answers). With stealing
// disabled (the push-era static routing) shard 1's worker idles while
// shard 0 runs every job in turn; with stealing the idle worker pulls the
// most-starved ready tenant across shards, so the lights run beside the
// hot tenant's chain. Jobs are node-budgeted CP, so the two configurations
// must produce bit-equal deployments — stealing may only move work, never
// change it.
//
// The light tenants are submitted first, so the earliest tenant completion
// (the spread's denominator) is a light job dispatched at once under
// either configuration; what stealing changes is how late the hot chain —
// and the fleet — finishes.
//
// Reported metrics (recorded in BENCH_PR6.json, when each job consumed a
// two-epoch stream with a 300 ms measurement gap):
//
//   - static-ms/op / stealing-ms/op: fleet makespan (first Submit to last
//     answer) under each configuration.
//   - steal-speedup/op: static over stealing. The win is shard
//     parallelism, so it needs a second CPU: on a single-CPU runner it is
//     about 1.
//   - static-spread/op / stealing-spread/op: max/min per-tenant completion
//     time.
//
// Both comparisons are live wall-clock timings, so they are logged rather
// than asserted (cf. BenchmarkStreamingAdvise); bit-equality and the
// steal counters are asserted.
func BenchmarkSkewedServe(b *testing.B) {
	const (
		nodes     = 150
		instances = 300
		shards    = 2
		lights    = 3
		hotJobs   = 4
	)
	rng := rand.New(rand.NewSource(43))
	g := core.NewGraph(nodes)
	for v := 0; v+1 < nodes; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k < 4*nodes; k++ {
		x, y := rng.Intn(nodes), rng.Intn(nodes)
		if x > y {
			x, y = y, x
		}
		if x != y && !g.HasEdge(x, y) {
			if err := g.AddEdge(x, y); err != nil {
				b.Fatal(err)
			}
		}
	}
	m := core.NewCostMatrix(instances)
	for i := 0; i < instances; i++ {
		for j := 0; j < instances; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}

	budget := solver.Budget{Nodes: 30_000}
	hot, light := skewedTenants(b, shards, lights)
	// chains lists each tenant's jobs by seed, lights first; a chain's jobs
	// run one after another, each warm-started from the previous answer.
	type chain struct {
		tenant string
		seeds  []int64
	}
	chains := make([]chain, 0, lights+1)
	for i, l := range light {
		chains = append(chains, chain{l, []int64{int64(100 + i)}})
	}
	hc := chain{tenant: hot}
	for i := 0; i < hotJobs; i++ {
		hc.seeds = append(hc.seeds, int64(i))
	}
	chains = append(chains, hc)

	// run starts every chain at once and records, per chain, the wall-clock
	// from fleet start to its last answer and its deployments in order.
	run := func(it int, static bool) (ms, spread float64, deps [][]core.Deployment, steals int64) {
		srv := serve.New(serve.Config{Shards: shards, DisableStealing: static})
		defer srv.Close()
		deps = make([][]core.Deployment, len(chains))
		errs := make([]error, len(chains))
		done := make([]time.Duration, len(chains))
		var wg sync.WaitGroup
		start := time.Now()
		for idx, c := range chains {
			// Submit every chain's first job before any goroutine starts,
			// so the lights are admitted ahead of the hot tenant.
			tk, err := srv.Submit(serve.Job{
				Tenant: c.tenant, Graph: g,
				ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
				Matrix:        m, SolverName: "cp", RoundBudget: budget,
				Seed: int64(1000*it) + c.seeds[0],
			})
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(idx int, c chain, tk *serve.Ticket) {
				defer wg.Done()
				for k := 0; ; k++ {
					res := tk.Wait()
					if res.Err != nil {
						errs[idx] = res.Err
						return
					}
					deps[idx] = append(deps[idx], res.Outcome.Deployment)
					if k+1 == len(c.seeds) {
						break
					}
					next, err := srv.Submit(serve.Job{
						Tenant: c.tenant, Graph: g,
						ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
						Matrix:        m, SolverName: "cp", RoundBudget: budget,
						Seed:      int64(1000*it) + c.seeds[k+1],
						WarmStart: res.Outcome.Deployment,
					})
					if err != nil {
						errs[idx] = err
						return
					}
					tk = next
				}
				done[idx] = time.Since(start)
			}(idx, c, tk)
		}
		wg.Wait()
		ms = float64(time.Since(start)) / float64(time.Millisecond)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		minC, maxC := done[0], done[0]
		for _, c := range done {
			minC, maxC = min(minC, c), max(maxC, c)
		}
		spread = float64(maxC) / float64(minC)
		return ms, spread, deps, srv.Stats().Steals
	}

	var staticMS, stealMS, speedup, staticSpread, stealSpread float64
	for it := 0; it < b.N; it++ {
		sMS, sSpread, sDeps, sSteals := run(it, true)
		if sSteals != 0 {
			b.Fatalf("static configuration recorded %d steals, want 0", sSteals)
		}
		wMS, wSpread, wDeps, wSteals := run(it, false)
		if wSteals == 0 {
			b.Fatal("stealing configuration recorded no steals on a skewed fleet")
		}
		for i := range chains {
			for k := range sDeps[i] {
				if !slices.Equal(sDeps[i][k], wDeps[i][k]) {
					b.Fatalf("chain %s job %d: stealing changed the deployment", chains[i].tenant, k)
				}
			}
		}
		if wMS >= sMS {
			b.Logf("stealing makespan %.1f ms not below static %.1f ms", wMS, sMS)
		}
		staticMS += sMS
		stealMS += wMS
		speedup += sMS / wMS
		staticSpread += sSpread
		stealSpread += wSpread
	}
	b.ReportMetric(staticMS/float64(b.N), "static-ms/op")
	b.ReportMetric(stealMS/float64(b.N), "stealing-ms/op")
	b.ReportMetric(speedup/float64(b.N), "steal-speedup/op")
	b.ReportMetric(staticSpread/float64(b.N), "static-spread/op")
	b.ReportMetric(stealSpread/float64(b.N), "stealing-spread/op")
}

// patchBench1000 builds the pair-delta workload at the 1000-instance tier:
// a uniform cost matrix, its sorted pair list, and a successor epoch where
// 8 of the 1000 rows changed.
func patchBench1000(b *testing.B) (m1 *core.CostMatrix, pairs0 []core.CostPair, rows []int) {
	b.Helper()
	const instances = 1000
	const changedRows = 8
	rng := rand.New(rand.NewSource(29))
	m0 := core.NewCostMatrix(instances)
	for i := 0; i < instances; i++ {
		for j := 0; j < instances; j++ {
			if i != j {
				m0.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	pairs0 = m0.SortedPairs()
	m1 = m0.Clone()
	for r := 0; r < changedRows; r++ {
		row := (r * 113) % instances
		rows = append(rows, row)
		for j := 0; j < instances; j++ {
			if row != j {
				m1.Set(row, j, 0.2+rng.Float64())
			}
		}
	}
	return m1, pairs0, rows
}

// BenchmarkPatchSortedPairs measures the fused pair-list delta (changed
// rows rebuilt as sorted runs, merged into the previous list in one pass)
// on the 1000-instance tier with 8 changed rows — the per-epoch cost the
// streaming pipeline pays to keep Prep's pair list current.
// BenchmarkSortedPairsRebuild below is the same epoch advanced by a full
// re-sort; the pair of numbers in BENCH_PR6.json is the before/after of the
// delta path.
func BenchmarkPatchSortedPairs(b *testing.B) {
	m1, pairs0, rows := patchBench1000(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := cluster.PatchSortedPairs(m1, pairs0, rows)
		if len(out) != len(pairs0) {
			b.Fatalf("patched list has %d pairs, want %d", len(out), len(pairs0))
		}
	}
}

// BenchmarkSortedPairsRebuild is the comparator for
// BenchmarkPatchSortedPairs: advancing the pair list to the 8-changed-rows
// epoch by re-sorting all ~10^6 pairs from scratch.
func BenchmarkSortedPairsRebuild(b *testing.B) {
	m1, pairs0, _ := patchBench1000(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := m1.SortedPairs()
		if len(out) != len(pairs0) {
			b.Fatalf("rebuilt list has %d pairs, want %d", len(out), len(pairs0))
		}
	}
}

func BenchmarkNetsimMessages(b *testing.B) {
	lat := func(src, dst int, now netsim.Time, rng *rand.Rand) float64 { return 0.2 }
	sim, err := netsim.New(64, lat, 1, netsim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Send(i%64, (i+7)%64, 1024, nil)
		if i%4096 == 4095 {
			sim.Run()
		}
	}
	sim.Run()
}

func BenchmarkStagedMeasurement(b *testing.B) {
	dc, err := topology.New(topology.EC2Profile(), 5)
	if err != nil {
		b.Fatal(err)
	}
	prov, err := cloud.NewProvider(dc, 0.6, 6)
	if err != nil {
		b.Fatal(err)
	}
	insts, err := prov.RunInstances(20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.Run(dc, insts, measure.Options{
			Scheme: measure.Staged, DurationMS: 200, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBehavioralSimTick(b *testing.B) {
	dc, err := topology.New(topology.EC2Profile(), 9)
	if err != nil {
		b.Fatal(err)
	}
	prov, err := cloud.NewProvider(dc, 0.6, 10)
	if err != nil {
		b.Fatal(err)
	}
	insts, err := prov.RunInstances(16)
	if err != nil {
		b.Fatal(err)
	}
	w := &workload.BehavioralSim{Rows: 4, Cols: 4, Ticks: 10}
	d := core.Identity(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(dc, insts, d, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdPrep1000 measures the data-parallel cold path on the
// 1000-instance tier: the full Prep artifact set a cp-family tenant needs —
// the k=20 rounded matrix with its sorted pair list (k-means over ~10^6
// link costs plus the run-merge pair sort), the cheapest-rows table, and
// the off-diagonal extraction — built from scratch once with a single
// worker and once with the default worker pool. Both builds are bit-equal
// by construction (the parallel-equality suites pin it); the benchmark
// records how much wall-clock the worker pool buys.
//
// Reported metrics (recorded in BENCH_PR8.json):
//
//   - sequential-ms/op: cold build with par.SetWorkers(1).
//   - parallel-ms/op: cold build at the default GOMAXPROCS workers.
//   - speedup/op: sequential over parallel; ~1x on single-core runners,
//     >= 2x expected at 4+ cores.
func BenchmarkColdPrep1000(b *testing.B) {
	p := portfolio1000Problem(b)
	buildAll := func() {
		np, err := solver.NewProblem(p.Graph, p.Costs.Clone(), solver.LongestLink)
		if err != nil {
			b.Fatal(err)
		}
		prep := np.Prep()
		var roundedErr error
		par.Do(
			func() { _, _, roundedErr = prep.Rounded(20) },
			func() { prep.CheapestRows() },
			func() { prep.OffDiagonal() },
		)
		if roundedErr != nil {
			b.Fatal(roundedErr)
		}
	}
	defer par.SetWorkers(0)
	buildAll() // untimed warmup: allocator and page-cache first-touch
	var seqMS, parMS, speedup float64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		par.SetWorkers(1)
		runtime.GC() // each side starts from a collected heap
		t0 := time.Now()
		buildAll()
		seq := float64(time.Since(t0)) / float64(time.Millisecond)

		par.SetWorkers(0)
		runtime.GC()
		t1 := time.Now()
		buildAll()
		parl := float64(time.Since(t1)) / float64(time.Millisecond)

		seqMS += seq
		parMS += parl
		speedup += seq / parl
	}
	b.ReportMetric(seqMS/float64(b.N), "sequential-ms/op")
	b.ReportMetric(parMS/float64(b.N), "parallel-ms/op")
	b.ReportMetric(speedup/float64(b.N), "speedup/op")
}

// BenchmarkDaemonRestart measures multi-tenant WAL recovery: an 8-tenant
// daemon (300x300 matrices, one full epoch, one advice, one row delta each)
// is repeatedly reopened from the same on-disk logs, once under
// par.SetWorkers(1) and once under the default pool. Recovery replays the
// logs one at a time, verifies per-epoch fingerprints, and re-seeds the
// artifact cache; the k=20 rounding inside re-seeding dominates, and it is
// the only part the worker bound reaches. Recovered state is bit-equal to
// the daemon that wrote the logs (pinned by TestDaemonReplayBitEqual).
//
// Reported metrics (recorded in BENCH_PR8.json; the names predate
// sequential replay and are kept so recorded runs stay comparable):
//
//   - sequential-ms/op: restart with par.SetWorkers(1).
//   - parallel-ms/op: restart at the default GOMAXPROCS workers.
//   - speedup/op: sequential over parallel.
func BenchmarkDaemonRestart(b *testing.B) {
	const tenants, instances = 8, 300
	g := core.NewGraph(40)
	for v := 0; v+1 < 40; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	d, err := serve.OpenDaemon(serve.DaemonConfig{Dir: dir, Serve: serve.Config{Shards: 1}})
	if err != nil {
		b.Fatal(err)
	}
	for tn := 0; tn < tenants; tn++ {
		rng := rand.New(rand.NewSource(int64(500 + tn)))
		m := core.NewCostMatrix(instances)
		for i := 0; i < instances; i++ {
			for j := 0; j < instances; j++ {
				if i != j {
					m.Set(i, j, 0.2+rng.Float64())
				}
			}
		}
		rows := make([]wal.RowDelta, instances)
		for i := range rows {
			rows[i] = wal.RowDelta{Row: i, Values: append([]float64(nil), m.Row(i)...)}
		}
		name := fmt.Sprintf("tenant-%d", tn)
		if _, _, err := d.AppendEpoch(name, instances, rows, nil); err != nil {
			b.Fatal(err)
		}
		res, err := d.Advise(serve.AdviseRequest{
			Tenant: name, Graph: g, ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
			SolverName: "cp", ClusterK: 20,
			RoundBudget: solver.Budget{Nodes: 2000}, Seed: int64(tn),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		delta := append([]float64(nil), m.Row(tn)...)
		for j := range delta {
			if j != tn {
				delta[j] *= 1.25
			}
		}
		if _, _, err := d.AppendEpoch(name, instances, []wal.RowDelta{{Row: tn, Values: delta}}, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}

	// Recovery appends nothing, so the same directory replays identically
	// on every reopen.
	reopen := func() {
		rd, err := serve.OpenDaemon(serve.DaemonConfig{Dir: dir, Serve: serve.Config{Shards: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(rd.Stats().Tenants); got != tenants {
			b.Fatalf("recovered %d tenants, want %d", got, tenants)
		}
		if err := rd.Close(); err != nil {
			b.Fatal(err)
		}
	}
	defer par.SetWorkers(0)
	reopen() // untimed warmup: allocator and page-cache first-touch
	var seqMS, parMS, speedup float64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		par.SetWorkers(1)
		runtime.GC() // each side starts from a collected heap
		t0 := time.Now()
		reopen()
		seq := float64(time.Since(t0)) / float64(time.Millisecond)

		par.SetWorkers(0)
		runtime.GC()
		t1 := time.Now()
		reopen()
		parl := float64(time.Since(t1)) / float64(time.Millisecond)

		seqMS += seq
		parMS += parl
		speedup += seq / parl
	}
	b.ReportMetric(seqMS/float64(b.N), "sequential-ms/op")
	b.ReportMetric(parMS/float64(b.N), "parallel-ms/op")
	b.ReportMetric(speedup/float64(b.N), "speedup/op")
}
