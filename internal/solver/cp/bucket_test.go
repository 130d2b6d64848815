package cp

import (
	"math/rand"
	"reflect"
	"testing"

	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/solver"
)

// pickVarScan is the pre-index O(n) selector: the unassigned variable with
// the smallest domain, tie-breaking on higher degree then lower index.
// engine.pickVar must make exactly this choice at every search node.
func pickVarScan(e *engine) int {
	best, bestDeg := -1, -1
	var bestSize int32
	for i := 0; i < e.d.n; i++ {
		if e.assigned[i] >= 0 {
			continue
		}
		size := e.domSize[i]
		deg := e.d.nodeDeg[i]
		if best < 0 || size < bestSize || (size == bestSize && deg > bestDeg) {
			best, bestSize, bestDeg = i, size, deg
		}
	}
	return best
}

// checkedFeasible is descent.feasible with engine.run and engine.search
// copied so that every search node first checks pickVar against
// pickVarScan. Callers compare its verdicts and node counts with the real
// feasible on a twin descent, which catches the copy drifting from the
// search it mirrors.
func checkedFeasible(t *testing.T, d *descent, c float64, clock *solver.Clock) (ok bool, dep core.Deployment, exhausted bool) {
	t.Helper()
	d.tighten(c)
	if d.degFilter {
		d.refilter()
		if d.anyRootEmpty() {
			return false, nil, true
		}
	}
	rootVar := d.pickRoot()
	vals := d.rootValues(rootVar)
	if len(vals) == 0 {
		return false, nil, true
	}
	e := d.eng
	e.clock = clock
	e.reset()
	if clock.Tick() {
		return false, nil, false
	}
	for _, v := range vals {
		if e.assign(rootVar, int(v), 0) {
			if checkedSearch(t, e, 1) {
				return true, e.deployment(), false
			}
			e.undo(rootVar, 0)
		}
		if e.limitHit {
			return false, nil, false
		}
	}
	return false, nil, true
}

// checkedSearch is engine.search with the selector check at every node.
func checkedSearch(t *testing.T, e *engine, depth int) bool {
	if depth == e.d.n {
		return true
	}
	if e.clock.Tick() {
		e.limitHit = true
		return false
	}
	want := pickVarScan(e)
	i := e.pickVar()
	if i != want {
		t.Fatalf("depth %d: bucketed pickVar chose %d, the scan chose %d", depth, i, want)
	}
	dom := e.dom[i]
	for _, v := range e.d.valOrder {
		j := int(v)
		if !dom.has(j) {
			continue
		}
		if e.assign(i, j, depth) {
			if checkedSearch(t, e, depth+1) {
				return true
			}
			e.undo(i, depth)
		}
		if e.limitHit {
			return false
		}
	}
	return false
}

// The bucketed domain-size index must make exactly the choices of the
// pre-index O(n) scan at every search node. Twin descents walk down the full
// threshold ladder, one through feasible and one through checkedFeasible;
// every verdict, embedding, and node count must match as well.
func TestBucketedPickVarMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		weighted := trial%3 == 2
		p := randomTinyProblem(t, rng, weighted)
		k := 0
		if trial%2 == 1 {
			k = 3
		}
		_, pairs, err := cluster.RoundCostMatrixPairs(p.Costs, k)
		if err != nil {
			t.Fatal(err)
		}
		thresholds := distinctCosts(pairs)
		if p.Graph.Weighted() {
			thresholds = weightedThresholds(thresholds, p.Graph)
		}
		degFilter := !p.Graph.Weighted()
		bucketed := newDescent(p, pairs, degFilter)
		checked := newDescent(p, pairs, degFilter)

		for idx := len(thresholds) - 1; idx >= 0; idx-- {
			c := thresholds[idx]
			bClock := solver.NewClock(solver.Budget{Nodes: 5_000_000})
			sClock := solver.NewClock(solver.Budget{Nodes: 5_000_000})
			bOK, bDep, bEx := bucketed.feasible(c, bClock)
			sOK, sDep, sEx := checkedFeasible(t, checked, c, sClock)
			if bOK != sOK || bEx != sEx {
				t.Fatalf("trial %d (weighted=%v k=%d) c=%g: bucketed (ok=%v ex=%v) != scan (ok=%v ex=%v)",
					trial, weighted, k, c, bOK, bEx, sOK, sEx)
			}
			if !reflect.DeepEqual(bDep, sDep) {
				t.Fatalf("trial %d c=%g: embeddings diverge: %v vs %v", trial, c, bDep, sDep)
			}
			if bClock.Nodes() != sClock.Nodes() {
				t.Fatalf("trial %d c=%g: node counts diverge: %d vs %d (different search trees)",
					trial, c, bClock.Nodes(), sClock.Nodes())
			}
		}
	}
}

// The index must stay consistent across reuse: after a full descent the
// engine is reset per check, so interleaving feasible calls at jumping
// thresholds (as the real descent does when the incumbent improves in big
// steps) must keep verdicts equal too.
func TestBucketedPickVarDescentReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		p := randomTinyProblem(t, rng, false)
		_, pairs, err := cluster.RoundCostMatrixPairs(p.Costs, 0)
		if err != nil {
			t.Fatal(err)
		}
		thresholds := distinctCosts(pairs)
		bucketed := newDescent(p, pairs, true)
		checked := newDescent(p, pairs, true)
		// Walk every other threshold, descending, then the lowest.
		for idx := len(thresholds) - 1; idx >= 0; idx -= 2 {
			c := thresholds[idx]
			bOK, _, bEx := bucketed.feasible(c, solver.NewClock(solver.Budget{Nodes: 5_000_000}))
			sOK, _, sEx := checkedFeasible(t, checked, c, solver.NewClock(solver.Budget{Nodes: 5_000_000}))
			if bOK != sOK || bEx != sEx {
				t.Fatalf("trial %d c=%g: reuse divergence (ok %v/%v ex %v/%v)", trial, c, bOK, sOK, bEx, sEx)
			}
		}
	}
}
