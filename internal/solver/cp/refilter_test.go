package cp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/solvertest"
)

// oracleFilter is the root degree filter the profile slab and requirement
// groups replaced, kept as their oracle: every refilter rebuilds each
// instance's full neighbour-degree profile, sorts it descending, and tests
// every (node, instance) pair of the root domains on its own. It reads a
// descent's threshold graphs and keeps root domains of its own.
type oracleFilter struct {
	nodeProfile [][]int32
	instProfile [][]int32
	countBuf    []int32
	root        []bitset
	rootSize    []int32
}

func newOracleFilter(d *descent) *oracleFilter {
	g := d.g
	o := &oracleFilter{
		nodeProfile: make([][]int32, d.n),
		instProfile: make([][]int32, d.m),
		countBuf:    make([]int32, 2*d.m),
		root:        make([]bitset, d.n),
		rootSize:    slices.Clone(d.rootSize),
	}
	for i := 0; i < d.n; i++ {
		var prof []int32
		for _, w := range g.Out(i) {
			prof = append(prof, int32(g.Degree(w)))
		}
		for _, w := range g.In(i) {
			prof = append(prof, int32(g.Degree(w)))
		}
		slices.SortFunc(prof, func(a, b int32) int { return int(b - a) })
		o.nodeProfile[i] = prof
		o.root[i] = d.root[i].clone()
	}
	return o
}

func (o *oracleFilter) refilter(d *descent) {
	instOut, instIn := d.outDeg[0], d.inDeg[0]
	for j := 0; j < d.m; j++ {
		prof := o.instProfile[j][:0]
		collect := func(k int) bool {
			prof = append(prof, instOut[k]+instIn[k])
			return true
		}
		d.adjOut[0].row(j).forEach(collect)
		d.adjIn[0].row(j).forEach(collect)
		o.sortProfileDesc(prof)
		o.instProfile[j] = prof
	}
	for i := 0; i < d.n; i++ {
		needOut := int32(d.g.OutDegree(i))
		needIn := int32(d.g.InDegree(i))
		dom := o.root[i]
		dom.forEach(func(j int) bool {
			if instOut[j] < needOut || instIn[j] < needIn ||
				!oracleDominates(o.instProfile[j], o.nodeProfile[i]) {
				dom.clear(j)
				o.rootSize[i]--
			}
			return true
		})
	}
}

// oracleDominates reports whether a covers b elementwise over b's length,
// both sorted descending, a at least as long as b.
func oracleDominates(a, b []int32) bool {
	if len(a) < len(b) {
		return false
	}
	for k := range b {
		if a[k] < b[k] {
			return false
		}
	}
	return true
}

// sortProfileDesc counting-sorts a profile of degrees in [0, 2m) descending.
func (o *oracleFilter) sortProfileDesc(p []int32) {
	buf := o.countBuf
	for _, v := range p {
		buf[v]++
	}
	idx := 0
	for v := len(buf) - 1; v >= 0; v-- {
		for c := buf[v]; c > 0; c-- {
			p[idx] = int32(v)
			idx++
		}
		buf[v] = 0
	}
}

// checkRefilterOracle walks a fresh filtered descent down every threshold
// of p's k-set, refiltering after each tightening, and asserts after each
// that its root domains and sizes are the oracle's. It returns how many
// (node, instance) pairs the filter removed in all.
func checkRefilterOracle(t *testing.T, name string, p *solver.Problem, k int) int {
	t.Helper()
	set, err := cluster.Round(p.Costs, k)
	if err != nil {
		t.Fatal(err)
	}
	d := newDescent(p, set, true)
	o := newOracleFilter(d)
	thresholds := set.Levels()
	if p.Graph.Weighted() {
		thresholds = weightedThresholds(thresholds, p.Graph)
	}
	for idx := len(thresholds) - 1; idx >= 0; idx-- {
		d.tighten(thresholds[idx])
		d.refilter()
		o.refilter(d)
		for i := 0; i < d.n; i++ {
			if !slices.Equal(d.root[i].words, o.root[i].words) || d.rootSize[i] != o.rootSize[i] {
				t.Fatalf("%s k=%d c=%g: node %d root domain (size %d) differs from the oracle's (size %d)",
					name, k, thresholds[idx], i, d.rootSize[i], o.rootSize[i])
			}
			if int(d.rootSize[i]) != d.root[i].count() {
				t.Fatalf("%s k=%d: node %d size %d, domain holds %d", name, k, i, d.rootSize[i], d.root[i].count())
			}
		}
	}
	removed := 0
	for i := 0; i < d.n; i++ {
		removed += d.m - int(d.rootSize[i])
	}
	return removed
}

// filter1000Problem is a 1000-instance EC2-profile problem on a
// 10x10 mesh with a few extra edges, so node profiles differ in length.
func filter1000Problem(t testing.TB) *solver.Problem {
	t.Helper()
	g, err := core.Mesh2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 55}, {0, 99}, {12, 87}, {44, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := solvertest.Realistic(g, 1000, solver.LongestLink, 7)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomSparseProblem builds a random directed graph on 6 to 11 nodes over
// four times as many instances, with costs drawn from 1..30: near the
// bottom of its ladder the threshold graph has fewer edges per instance
// than the busiest node has neighbours, and many instances have more
// neighbours than the longest node profile, so the filter's profile
// comparison and top-entry selection both decide verdicts.
func randomSparseProblem(t *testing.T, rng *rand.Rand, weighted bool) *solver.Problem {
	t.Helper()
	n := 6 + rng.Intn(6)
	m := 4 * n
	g := core.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.25 {
				if err := g.AddEdge(i, j); err != nil {
					t.Fatal(err)
				}
				if weighted && rng.Float64() < 0.5 {
					if err := g.SetWeight(i, j, 2); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	cm := core.NewCostMatrix(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				cm.Set(i, j, float64(1+rng.Intn(30)))
			}
		}
	}
	p, err := solver.NewProblem(g, cm, solver.LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRefilterMatchesOracle drives the slab-and-group refilter and the old
// full-profile one through the same tightenings and asserts identical root
// domains after each: on solvertest problems, on random directed and
// weighted graphs, and at 1000 instances.
func TestRefilterMatchesOracle(t *testing.T) {
	removed := 0
	planted, _, err := solvertest.PlantedLL(4, 5, 6, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.TwoLevelAggregation(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	treeP, err := solvertest.Realistic(tree, 40, solver.LongestLink, 5)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := core.RandomDAG(14, 0.3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	dagP, err := solvertest.Realistic(dag, 30, solver.LongestLink, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 20} {
		removed += checkRefilterOracle(t, "planted", planted, k)
		removed += checkRefilterOracle(t, "tree", treeP, k)
		removed += checkRefilterOracle(t, "dag", dagP, k)
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		p := randomTinyProblem(t, rng, trial%2 == 1)
		removed += checkRefilterOracle(t, fmt.Sprintf("random %d", trial), p, 0)
	}
	for trial := 0; trial < 20; trial++ {
		p := randomSparseProblem(t, rng, trial%2 == 1)
		removed += checkRefilterOracle(t, fmt.Sprintf("sparse %d", trial), p, 0)
	}
	removed += checkRefilterOracle(t, "1000 instances", filter1000Problem(t), 20)
	if removed == 0 {
		t.Fatal("the filter removed no instance from any root domain: the corpus checks nothing")
	}
}

// TestRefilterAllocatesNothing: at 1000 instances a refilter runs on the
// descent's preallocated slab and scratch, allocating nothing per call.
func TestRefilterAllocatesNothing(t *testing.T) {
	p := filter1000Problem(t)
	set, err := cluster.Round(p.Costs, 20)
	if err != nil {
		t.Fatal(err)
	}
	d := newDescent(p, set, true)
	levels := set.Levels()
	d.tighten(levels[len(levels)/2])
	if allocs := testing.AllocsPerRun(5, d.refilter); allocs != 0 {
		t.Fatalf("refilter allocated %v times per call, want 0", allocs)
	}
}
