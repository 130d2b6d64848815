package cp

import (
	"testing"

	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
)

// benchDescent builds a 45-node / 50-instance descent (k=20 cost clusters,
// the paper's default) and locates the lowest feasible threshold with a
// bounded probe descent. It returns a fresh descent settled exactly at that
// threshold, ready for steady-state search benchmarking.
func benchDescent(b *testing.B) (*descent, float64) {
	b.Helper()
	g, err := core.Mesh2D(5, 9)
	if err != nil {
		b.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 50, solver.LongestLink, 3)
	if err != nil {
		b.Fatal(err)
	}
	_, probePairs, err := cluster.RoundCostMatrixPairs(p.Costs, 20)
	if err != nil {
		b.Fatal(err)
	}
	thresholds := distinctCosts(probePairs)
	probe := newDescent(p, probePairs, true)
	probeClock := solver.NewClock(solver.Budget{Nodes: 2_000_000})
	best := -1
	for idx := len(thresholds) - 1; idx >= 0; idx-- {
		ok, _, _ := probe.feasible(thresholds[idx], probeClock)
		if !ok {
			break
		}
		best = idx
	}
	if best < 0 {
		b.Fatal("no feasible threshold found")
	}
	_, pairs, err := cluster.RoundCostMatrixPairs(p.Costs, 20)
	if err != nil {
		b.Fatal(err)
	}
	d := newDescent(p, pairs, true)
	c := thresholds[best]
	if ok, _, _ := d.feasible(c, solver.NewClock(solver.Budget{Nodes: 2_000_000})); !ok {
		b.Fatal("settling check not feasible")
	}
	return d, c
}

// BenchmarkCPSearchNode measures steady-state backtracking: one complete
// feasibility search per op at the tightest feasible threshold, on the
// persistent engine. Everything — domains, trail arenas, value order — is
// preallocated, so this must report 0 allocs/op.
func BenchmarkCPSearchNode(b *testing.B) {
	d, _ := benchDescent(b)
	rootVar := d.pickRoot()
	vals := d.rootValues(rootVar)
	clock := solver.NewClock(solver.Budget{})
	b.ReportAllocs()
	b.ResetTimer()
	start := clock.Nodes()
	for i := 0; i < b.N; i++ {
		if !d.eng.run(rootVar, vals, clock) {
			b.Fatal("expected feasible search")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(clock.Nodes()-start)/float64(b.N), "nodes/op")
}

// BenchmarkCPTighten measures one full incremental descent of the threshold
// graphs: every distinct threshold from the top of the ladder to the bottom.
// The old engine paid an O(m^2)-per-weight-class rebuild at every threshold;
// the persistent descent clears each adjacency bit exactly once in total.
func BenchmarkCPTighten(b *testing.B) {
	g, err := core.Mesh2D(5, 9)
	if err != nil {
		b.Fatal(err)
	}
	p, err := solvertest.Realistic(g, 50, solver.LongestLink, 3)
	if err != nil {
		b.Fatal(err)
	}
	_, pairs, err := cluster.RoundCostMatrixPairs(p.Costs, 0)
	if err != nil {
		b.Fatal(err)
	}
	thresholds := distinctCosts(pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := newDescent(p, pairs, true)
		b.StartTimer()
		for idx := len(thresholds) - 1; idx >= 0; idx-- {
			d.tighten(thresholds[idx])
		}
	}
}
