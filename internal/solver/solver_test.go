package solver

import (
	"math/rand"
	"testing"
	"time"

	"cloudia/internal/core"
)

func randomMatrix(n int, seed int64) *core.CostMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := core.NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	return m
}

func TestNewProblemValidation(t *testing.T) {
	g, err := core.Mesh2D(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := randomMatrix(4, 1)
	if _, err := NewProblem(nil, m, LongestLink); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewProblem(g, core.NewCostMatrix(3), LongestLink); err == nil {
		t.Fatal("undersized instance set accepted")
	}
	if _, err := NewProblem(g, m, Objective("nope")); err == nil {
		t.Fatal("bogus objective accepted")
	}
	// Mesh is cyclic (bidirectional edges): LongestPath must reject it.
	if _, err := NewProblem(g, m, LongestPath); err == nil {
		t.Fatal("cyclic graph accepted for longest-path")
	}
	if _, err := NewProblem(g, m, LongestLink); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

func TestProblemCostMatchesCore(t *testing.T) {
	g, err := core.TwoLevelAggregation(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := randomMatrix(8, 2)
	pLL, err := NewProblem(g, m, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	pLP, err := NewProblem(g, m, LongestPath)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Identity(7)
	if got, want := pLL.Cost(d), core.LongestLink(d, g, m); got != want {
		t.Fatalf("LL cost %g != %g", got, want)
	}
	wantLP, err := core.LongestPath(d, g, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := pLP.Cost(d); got != wantLP {
		t.Fatalf("LP cost %g != %g", got, wantLP)
	}
}

func TestRandomDeploymentValid(t *testing.T) {
	g, err := core.Mesh2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, randomMatrix(12, 3), LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 20; k++ {
		d := RandomDeployment(p, rng)
		if len(d) != 9 {
			t.Fatalf("deployment length %d", len(d))
		}
		if err := d.Validate(12); err != nil {
			t.Fatalf("invalid random deployment: %v", err)
		}
	}
}

func TestBootstrapImproves(t *testing.T) {
	g, err := core.Mesh2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, randomMatrix(12, 5), LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	rng1 := rand.New(rand.NewSource(6))
	_, one := Bootstrap(p, 1, rng1)
	rng2 := rand.New(rand.NewSource(6))
	_, fifty := Bootstrap(p, 50, rng2)
	if fifty > one {
		t.Fatalf("best of 50 (%g) worse than best of 1 (%g)", fifty, one)
	}
}

func TestClockNodeBudget(t *testing.T) {
	c := NewClock(Budget{Nodes: 10})
	stops := 0
	for i := 0; i < 20; i++ {
		if c.Tick() {
			stops++
		}
	}
	if stops == 0 {
		t.Fatal("node budget never triggered")
	}
	if c.Nodes() != 20 {
		t.Fatalf("Nodes = %d, want 20", c.Nodes())
	}
	if !c.Expired() {
		t.Fatal("Expired = false after budget exceeded")
	}
}

func TestClockTimeBudget(t *testing.T) {
	c := NewClock(Budget{Time: time.Millisecond})
	time.Sleep(2 * time.Millisecond)
	// Tick checks wall clock every 1024 ticks.
	hit := false
	for i := 0; i < 2048; i++ {
		if c.Tick() {
			hit = true
			break
		}
	}
	if !hit {
		t.Fatal("time budget never triggered")
	}
}

func TestClockUnlimited(t *testing.T) {
	for _, b := range []Budget{{}, {Nodes: -5}, {Time: -time.Millisecond}} {
		if !b.Unlimited() {
			t.Fatalf("%+v should be unlimited", b)
		}
		c := NewClock(b)
		for i := 0; i < 5000; i++ {
			if c.Tick() {
				t.Fatalf("unlimited budget %+v triggered", b)
			}
		}
	}
	if (Budget{Nodes: 5, Time: -time.Millisecond}).Unlimited() {
		t.Fatal("a budget with one positive axis is bounded")
	}
}
