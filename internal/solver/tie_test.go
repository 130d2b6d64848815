package solver

import (
	"testing"
	"time"

	"cloudia/internal/core"
)

// tieFixture builds a 2-node line graph over 3 instances where deployments
// {0,1} and {1,0}... more usefully: primary costs tie between two
// deployments while the tie matrix separates them.
func tieFixture(t *testing.T) (*core.Graph, *core.CostMatrix, *core.CostMatrix) {
	t.Helper()
	g := core.NewGraph(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	n := 3
	primary := core.NewCostMatrix(n)
	tie := core.NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			primary.Set(i, j, 5) // every link ties on primary cost
			tie.Set(i, j, float64(10*i+j))
		}
	}
	return g, primary, tie
}

func TestNewProblemTieValidation(t *testing.T) {
	g, primary, _ := tieFixture(t)
	small := core.NewCostMatrix(2)
	small.Set(0, 1, 1)
	small.Set(1, 0, 1)
	if _, err := NewProblemTie(g, primary, small, LongestLink); err == nil {
		t.Fatal("size-mismatched tie matrix accepted")
	}
	p, err := NewProblemTie(g, primary, nil, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tie != nil {
		t.Fatal("nil tie must stay nil")
	}
	if got := p.TieCost(core.Deployment{0, 1}); got != 0 {
		t.Fatalf("TieCost without tie matrix = %g, want 0", got)
	}
}

func TestTieCostAndBetter(t *testing.T) {
	g, primary, tie := tieFixture(t)
	p, err := NewProblemTie(g, primary, tie, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Deployment{0, 1} // tie cost 1 (edge 0->1 on instances 0->1)
	b := core.Deployment{2, 1} // tie cost 21
	if ca, cb := p.Cost(a), p.Cost(b); ca != cb {
		t.Fatalf("fixture broken: primary costs %g vs %g should tie", ca, cb)
	}
	if got := p.TieCost(a); got != 1 {
		t.Fatalf("TieCost(a) = %g, want 1", got)
	}
	if got := p.TieCost(b); got != 21 {
		t.Fatalf("TieCost(b) = %g, want 21", got)
	}
	if !p.Better(a, b, p.Cost(a), p.Cost(b)) {
		t.Fatal("a must beat b on tie cost")
	}
	if p.Better(b, a, p.Cost(b), p.Cost(a)) {
		t.Fatal("b must not beat a")
	}
	// Strictly lower primary always wins regardless of tie.
	if !p.Better(b, a, 4, 5) {
		t.Fatal("lower primary cost must win outright")
	}
}

// TestEvolveTieCarriesMatrix pins how a stream moves from one epoch to the
// next: each epoch's problem is built fresh over the same graph and carries
// that epoch's tie matrix, which may change arbitrarily between epochs.
func TestEvolveTieCarriesMatrix(t *testing.T) {
	g, primary, tie := tieFixture(t)
	p, err := NewProblemTie(g, primary, tie, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tie != tie {
		t.Fatal("problem must carry the tie matrix")
	}
	next := primary.Clone()
	next.Set(0, 1, 7)
	tie2 := tie.Clone()
	tie2.Set(0, 1, 99)
	np, err := NewProblemTie(g, next, tie2, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	if np.Tie != tie2 {
		t.Fatal("next epoch's problem must carry the new tie matrix")
	}
	if p.Tie != tie {
		t.Fatal("building the next epoch must not touch the previous problem")
	}
	// Dropping the tie matrix in a later epoch is allowed.
	np2, err := NewProblemTie(g, next, nil, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	if np2.Tie != nil {
		t.Fatal("nil tie must clear the matrix")
	}
	// A size-mismatched tie is rejected.
	if _, err := NewProblemTie(g, next, core.NewCostMatrix(2), LongestLink); err == nil {
		t.Fatal("size-mismatched tie accepted for a later epoch")
	}
}

// fixedSolver returns a canned result, for pinning portfolio selection.
type fixedSolver struct {
	name string
	d    core.Deployment
	wait time.Duration
}

func (f fixedSolver) Name() string { return f.name }
func (f fixedSolver) Solve(p *Problem, _ Budget) (*Result, error) {
	time.Sleep(f.wait)
	return &Result{Deployment: f.d, Cost: p.Cost(f.d)}, nil
}

// TestPortfolioTieBreakDeterministic pins the post-join winner selection:
// on equal primary cost the lower tie cost wins even when that member
// finishes last, and with no tie matrix the earlier member index wins.
func TestPortfolioTieBreakDeterministic(t *testing.T) {
	g, primary, tie := tieFixture(t)
	worse := fixedSolver{name: "worse", d: core.Deployment{2, 1}}
	// The better-tie member finishes last to prove selection ignores
	// completion order.
	better := fixedSolver{name: "better", d: core.Deployment{0, 1}, wait: 20 * time.Millisecond}

	p, err := NewProblemTie(g, primary, tie, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewPortfolio(worse, better).Solve(p, Budget{Nodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "better" {
		t.Fatalf("winner = %q, want tie-break winner %q", res.Winner, "better")
	}

	// Without a tie matrix, equal costs resolve to the first member index.
	pp, err := NewProblem(g, primary, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	res, err = NewPortfolio(worse, better).Solve(pp, Budget{Nodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "worse" {
		t.Fatalf("winner = %q, want first member %q on pure tie", res.Winner, "worse")
	}
}
