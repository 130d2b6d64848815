package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetWeightValidation(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	if err := g.SetWeight(0, 2, 2); err == nil {
		t.Fatal("weight on missing edge accepted")
	}
	if err := g.SetWeight(0, 1, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := g.SetWeight(0, 1, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.SetWeight(0, 1, 2.5); err != nil {
		t.Fatalf("valid weight rejected: %v", err)
	}
	if g.Weight(0, 1) != 2.5 {
		t.Fatalf("Weight = %g, want 2.5", g.Weight(0, 1))
	}
}

func TestWeightDefaultsToOne(t *testing.T) {
	g := NewGraph(2)
	mustEdge(t, g, 0, 1)
	if g.Weight(0, 1) != 1 {
		t.Fatal("default weight != 1")
	}
	if g.Weighted() {
		t.Fatal("unweighted graph reports Weighted")
	}
}

func TestSetWeightOneClearsWeighting(t *testing.T) {
	g := NewGraph(2)
	mustEdge(t, g, 0, 1)
	if err := g.SetWeight(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("not weighted after SetWeight(3)")
	}
	if err := g.SetWeight(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		t.Fatal("still weighted after resetting to 1")
	}
	// The cleared caches read as all-ones, so a later edge cannot index
	// past them.
	g2 := NewGraph(3)
	mustEdge(t, g2, 0, 1)
	if err := g2.SetWeight(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := g2.SetWeight(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	mustEdge(t, g2, 1, 2)
	m := NewCostMatrix(3)
	m.Set(0, 1, 1)
	m.Set(1, 2, 2)
	if got := LongestLink(Identity(3), g2, m); got != 2 {
		t.Fatalf("LL after reset and AddEdge = %g, want 2", got)
	}
}

// SetWeights validates the whole list before storing any of it, and reports
// the first bad entry.
func TestSetWeightsAllOrNothing(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	err := g.SetWeights([]EdgeWeight{{From: 0, To: 1, W: 2}, {From: 2, To: 0, W: 2}, {From: 1, To: 2, W: -1}})
	if err == nil || !strings.Contains(err.Error(), "(2,0)") {
		t.Fatalf("err = %v, want the missing edge (2,0) reported", err)
	}
	if g.Weighted() {
		t.Fatal("a failed SetWeights stored weights")
	}
	if err := g.SetWeights([]EdgeWeight{{From: 0, To: 1, W: 2}, {From: 1, To: 2, W: 5}, {From: 0, To: 1, W: 3}}); err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 3 || g.Weight(1, 2) != 5 {
		t.Fatalf("weights %g, %g; want the later entry 3 and 5", g.Weight(0, 1), g.Weight(1, 2))
	}
}

func TestDistinctWeights(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 0, 2)
	if err := g.SetWeight(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	dw := g.DistinctWeights()
	if len(dw) != 2 { // {2, 1}
		t.Fatalf("DistinctWeights = %v, want two classes", dw)
	}
}

func TestWeightedLongestLink(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	m := NewCostMatrix(3)
	m.Set(0, 1, 1.0)
	m.Set(1, 2, 0.4)
	d := Identity(3)
	if got := LongestLink(d, g, m); got != 1.0 {
		t.Fatalf("unweighted LL = %g, want 1", got)
	}
	// Weight the cheap edge heavily: 0.4*5 = 2 dominates.
	if err := g.SetWeight(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if got := LongestLink(d, g, m); got != 2.0 {
		t.Fatalf("weighted LL = %g, want 2", got)
	}
}

func TestWeightedLongestPath(t *testing.T) {
	g := NewGraph(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	m := NewCostMatrix(3)
	m.Set(0, 1, 1.0)
	m.Set(1, 2, 2.0)
	if err := g.SetWeight(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	got, err := LongestPath(Identity(3), g, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5.0 { // 3*1 + 1*2
		t.Fatalf("weighted LP = %g, want 5", got)
	}
}

func TestCloneCarriesWeights(t *testing.T) {
	g := NewGraph(2)
	mustEdge(t, g, 0, 1)
	if err := g.SetWeight(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if c.Weight(0, 1) != 4 {
		t.Fatal("clone lost weight")
	}
	if err := c.SetWeight(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 4 {
		t.Fatal("clone shares weight storage")
	}
}

func TestAddEdgeAfterWeightsKeepsCaches(t *testing.T) {
	g := NewGraph(4)
	mustEdge(t, g, 0, 1)
	if err := g.SetWeight(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	mustEdge(t, g, 1, 2) // must not desync edgeW cache
	mustEdge(t, g, 2, 3)
	m := NewCostMatrix(4)
	m.Set(0, 1, 1)
	m.Set(1, 2, 3)
	m.Set(2, 3, 1)
	if got := LongestLink(Identity(4), g, m); got != 3 {
		t.Fatalf("LL after post-weight AddEdge = %g, want 3", got)
	}
}

// Property: scaling every weight by k scales both deployment costs by k.
func TestWeightScalingProperty(t *testing.T) {
	f := func(seed int64, rawK uint8) bool {
		k := 1 + float64(rawK%40)/10 // in [1, 4.9]
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g, err := RandomDAG(n, 0.4, rng)
		if err != nil || g.NumEdges() == 0 {
			return true // vacuous
		}
		m := NewCostMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m.Set(i, j, 0.1+rng.Float64())
				}
			}
		}
		d := Identity(n)
		baseLL := LongestLink(d, g, m)
		baseLP, err := LongestPath(d, g, m)
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if err := g.SetWeight(e.From, e.To, k); err != nil {
				return false
			}
		}
		gotLL := LongestLink(d, g, m)
		gotLP, err := LongestPath(d, g, m)
		if err != nil {
			return false
		}
		return approx(gotLL, k*baseLL) && approx(gotLP, k*baseLP)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func approx(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1e-9*(1+b)
}
