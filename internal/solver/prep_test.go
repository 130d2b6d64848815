package solver

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"cloudia/internal/cluster"
	"cloudia/internal/core"
)

// prepProblem builds a weighted-free LL problem with a DAG variant for the
// transpose artifacts.
func prepProblem(t *testing.T, nodes, instances int, seed int64) *Problem {
	t.Helper()
	g := core.NewGraph(nodes)
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v+1 < nodes; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3*nodes; k++ {
		x, y := rng.Intn(nodes), rng.Intn(nodes)
		if x > y {
			x, y = y, x
		}
		if x != y && !g.HasEdge(x, y) {
			if err := g.AddEdge(x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := NewProblem(g, randomMatrix(instances, seed+7), LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrepRoundedMatchesDirect pins Prep-served artifacts bit-identical to
// the per-solver computations they replaced.
func TestPrepRoundedMatchesDirect(t *testing.T) {
	p := prepProblem(t, 12, 20, 3)
	prep := p.Prep()

	for _, k := range []int{0, 3, 8} {
		m, pairs, err := prep.Rounded(k)
		if err != nil {
			t.Fatalf("Rounded(%d): %v", k, err)
		}
		wantM, wantPairs, err := cluster.RoundCostMatrixPairs(p.Costs, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.Size(); i++ {
			for j := 0; j < m.Size(); j++ {
				if m.At(i, j) != wantM.At(i, j) {
					t.Fatalf("Rounded(%d) matrix differs at (%d,%d): %g vs %g", k, i, j, m.At(i, j), wantM.At(i, j))
				}
			}
		}
		if !reflect.DeepEqual(pairs, wantPairs) {
			t.Fatalf("Rounded(%d) pairs differ from RoundCostMatrixPairs", k)
		}
		// Memoization: identical pointers on a second call.
		m2, pairs2, _ := prep.Rounded(k)
		if m2 != m || (len(pairs) > 0 && &pairs2[0] != &pairs[0]) {
			t.Fatalf("Rounded(%d) not memoized", k)
		}
	}
	if m0, _, _ := prep.Rounded(0); m0 != p.Costs {
		t.Fatal("Rounded(0) should serve the original matrix")
	}
	if m0, err := prep.RoundedMatrix(-1); err != nil || m0 != p.Costs {
		t.Fatal("RoundedMatrix(k<=0) should serve the original matrix")
	}
}

func TestPrepTransposedMatchesDirect(t *testing.T) {
	p := prepProblem(t, 10, 14, 5)
	prep := p.Prep()

	tg := prep.TransposedGraph()
	if tg.NumNodes() != p.Graph.NumNodes() || tg.NumEdges() != p.Graph.NumEdges() {
		t.Fatal("transposed graph shape mismatch")
	}
	for _, e := range p.Graph.Edges() {
		if !tg.HasEdge(e.To, e.From) {
			t.Fatalf("missing reversed edge (%d,%d)", e.To, e.From)
		}
		if tg.Weight(e.To, e.From) != p.Graph.Weight(e.From, e.To) {
			t.Fatalf("weight not carried for edge (%d,%d)", e.From, e.To)
		}
	}
	order, err := prep.TransposedTopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	wantOrder, err := tg.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Fatal("transposed topo order differs from direct computation")
	}

	for _, k := range []int{0, 4} {
		tm, err := prep.TransposedCosts(k)
		if err != nil {
			t.Fatal(err)
		}
		base, err := prep.RoundedMatrix(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tm.Size(); i++ {
			for j := 0; j < tm.Size(); j++ {
				if tm.At(i, j) != base.At(j, i) {
					t.Fatalf("TransposedCosts(%d) wrong at (%d,%d)", k, i, j)
				}
			}
		}
	}
}

func TestPrepDegreeOrderAndRows(t *testing.T) {
	p := prepProblem(t, 14, 18, 9)
	prep := p.Prep()

	order := prep.DegreeOrder()
	want := make([]core.NodeID, p.Graph.NumNodes())
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool {
		return p.Graph.Degree(want[a]) > p.Graph.Degree(want[b])
	})
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("DegreeOrder = %v, want %v", order, want)
	}

	rows := prep.CheapestRows()
	n := p.Costs.Size()
	if len(rows) != n {
		t.Fatalf("CheapestRows has %d rows, want %d", len(rows), n)
	}
	for u := 0; u < n; u++ {
		if len(rows[u]) != n-1 {
			t.Fatalf("row %d has %d entries", u, len(rows[u]))
		}
		seen := map[int32]bool{int32(u): true}
		for i, v := range rows[u] {
			if seen[v] {
				t.Fatalf("row %d repeats or self-references %d", u, v)
			}
			seen[v] = true
			if i > 0 {
				prev := rows[u][i-1]
				cp, cv := p.Costs.At(u, int(prev)), p.Costs.At(u, int(v))
				if cp > cv || (cp == cv && prev > v) {
					t.Fatalf("row %d not sorted by (cost, index) at %d", u, i)
				}
			}
		}
	}
}

func TestPrepOffDiagonalAndBootstrap(t *testing.T) {
	p := prepProblem(t, 8, 12, 11)
	prep := p.Prep()

	if !reflect.DeepEqual(prep.OffDiagonal(), p.Costs.OffDiagonal()) {
		t.Fatal("OffDiagonal differs from direct extraction")
	}

	// Bootstrap must be bit-identical to the previous per-solver pattern:
	// a fresh rand source from the seed feeding solver.Bootstrap.
	for _, seed := range []int64{0, 42, -7} {
		d, cost := prep.Bootstrap(10, seed)
		rng := rand.New(rand.NewSource(seed))
		wantD, wantCost := Bootstrap(p, 10, rng)
		if cost != wantCost || !reflect.DeepEqual(d, wantD) {
			t.Fatalf("Bootstrap(10,%d) differs from direct computation", seed)
		}
		// Returned deployments are private copies: mutating one must not
		// leak into the next call.
		d[0] = -99
		d2, _ := prep.Bootstrap(10, seed)
		if d2[0] == -99 {
			t.Fatal("Bootstrap returned a shared deployment")
		}
	}
}

// TestPrepConcurrentHammer drives one Problem's Prep from many goroutines —
// identical and distinct cluster-K values, plus every other artifact — the
// way racing portfolio members do. Run under -race (CI does), it also
// verifies all callers observe the same memoized instances.
func TestPrepConcurrentHammer(t *testing.T) {
	p := prepProblem(t, 12, 16, 13)
	prep := p.Prep()

	const workers = 16
	ks := []int{0, 2, 5, 9}
	mats := make([]*core.CostMatrix, workers)
	boots := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, k := range ks {
					m, pairs, err := prep.Rounded(k)
					if err != nil || m == nil || (m.Size() > 1 && len(pairs) == 0) {
						t.Errorf("Rounded(%d): m=%v err=%v", k, m, err)
						return
					}
					if k == ks[w%len(ks)] {
						mats[w] = m
					}
					if _, err := prep.TransposedCosts(k); err != nil {
						t.Errorf("TransposedCosts(%d): %v", k, err)
						return
					}
				}
				prep.TransposedGraph()
				if _, err := prep.TransposedTopoOrder(); err != nil {
					t.Errorf("TransposedTopoOrder: %v", err)
					return
				}
				prep.DegreeOrder()
				prep.CheapestRows()
				prep.OffDiagonal()
				_, boots[w] = prep.Bootstrap(10, int64(w%4))
			}
		}()
	}
	wg.Wait()
	// Same-K callers must have received the same memoized matrix.
	for w := 0; w < workers; w++ {
		for w2 := w + 1; w2 < workers; w2++ {
			if w%len(ks) == w2%len(ks) && mats[w] != mats[w2] {
				t.Fatalf("workers %d and %d got different matrices for the same k", w, w2)
			}
			if w%4 == w2%4 && boots[w] != boots[w2] {
				t.Fatalf("workers %d and %d got different bootstrap costs for the same seed", w, w2)
			}
		}
	}
}

// TestPrepSolversShareProblem runs the portfolio members' access pattern:
// concurrent CP-style and MIP-style artifact pulls against one Problem while
// local searches bootstrap, mirroring an advisor portfolio run.
func TestPrepSolversShareProblem(t *testing.T) {
	p := prepProblem(t, 10, 15, 17)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			prep := p.Prep()
			switch i % 3 {
			case 0: // CP: clustered pairs + bootstrap
				if _, _, err := prep.Rounded(5); err != nil {
					t.Errorf("Rounded: %v", err)
				}
				prep.Bootstrap(10, 99)
			case 1: // MIP: degree order + transposed artifacts + bootstrap
				prep.DegreeOrder()
				prep.TransposedGraph()
				if _, err := prep.TransposedCosts(5); err != nil {
					t.Errorf("TransposedCosts: %v", err)
				}
				prep.Bootstrap(10, 99)
			default: // greedy/local: rows + bootstrap
				prep.CheapestRows()
				prep.Bootstrap(10, 99)
			}
		}()
	}
	wg.Wait()
}

// perturbRows returns a copy of m with the off-diagonal entries of the given
// rows redrawn.
func perturbRows(m *core.CostMatrix, rows []int, seed int64) *core.CostMatrix {
	rng := rand.New(rand.NewSource(seed))
	out := m.Clone()
	for _, i := range rows {
		for j := 0; j < m.Size(); j++ {
			if i != j {
				out.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	return out
}

// TestWarmStartFoldsIntoBootstrap: a warm incumbent better than the random
// draw is served by Bootstrap; an invalid one is rejected.
func TestWarmStartFoldsIntoBootstrap(t *testing.T) {
	p := prepProblem(t, 8, 12, 53)
	rng := rand.New(rand.NewSource(99))
	// Search a deployment better than the 10-sample bootstrap by sampling
	// more.
	warm, warmCost := Bootstrap(p, 500, rng)
	_, plainCost := Bootstrap(p, 10, rand.New(rand.NewSource(7)))
	if warmCost >= plainCost {
		t.Skipf("500-sample bootstrap (%g) did not beat 10-sample (%g)", warmCost, plainCost)
	}

	prep := p.Prep()
	if err := prep.WarmStart(warm); err != nil {
		t.Fatal(err)
	}
	d, cost := prep.Bootstrap(10, 7)
	if cost != warmCost || !reflect.DeepEqual(d, warm) {
		t.Fatalf("Bootstrap ignored the warm incumbent: cost %g, warm %g", cost, warmCost)
	}
	// Mutating the returned deployment must not corrupt the stored warm
	// incumbent.
	d[0] = -1
	d2, _ := prep.Bootstrap(10, 8)
	if d2[0] == -1 {
		t.Fatal("warm incumbent shared with callers")
	}

	if err := prep.WarmStart(core.Deployment{0, 1}); err == nil {
		t.Fatal("short warm deployment accepted")
	}
	if err := prep.WarmStart(core.Deployment{0, 0, 1, 2, 3, 4, 5, 6}); err == nil {
		t.Fatal("non-injective warm deployment accepted")
	}
}

// TestEpochProblemsConcurrentWithSolves is the epoch-publication race
// hammer: a publisher goroutine builds a fresh Problem over one shared graph
// for each new epoch while portfolio-style readers hammer every Prep
// artifact of the epochs already published. Run under -race (CI does).
func TestEpochProblemsConcurrentWithSolves(t *testing.T) {
	p := prepProblem(t, 10, 14, 55)
	const epochs = 6

	published := make(chan *Problem, epochs+1)
	published <- p

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // publisher
		defer wg.Done()
		defer close(published)
		cur := p
		rng := rand.New(rand.NewSource(57))
		for e := 0; e < epochs; e++ {
			rows := []int{rng.Intn(14), rng.Intn(14)}
			m := perturbRows(cur.Costs, rows, int64(59+e))
			np, err := NewProblem(cur.Graph, m, cur.Objective)
			if err != nil {
				t.Errorf("NewProblem: %v", err)
				return
			}
			published <- np
			cur = np
			time.Sleep(time.Millisecond)
		}
	}()

	var readers sync.WaitGroup
	for prob := range published {
		prob := prob
		for w := 0; w < 3; w++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				prep := prob.Prep()
				if _, _, err := prep.Rounded(5); err != nil {
					t.Errorf("Rounded: %v", err)
				}
				if _, err := prep.TransposedCosts(5); err != nil {
					t.Errorf("TransposedCosts: %v", err)
				}
				prep.TransposedGraph()
				prep.DegreeOrder()
				prep.CheapestRows()
				prep.OffDiagonal()
				prep.Bootstrap(10, 1)
			}()
		}
	}
	wg.Wait()
	readers.Wait()
}
