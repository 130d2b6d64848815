package advisor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/solver/anneal"
	"cloudia/internal/solver/cp"
	"cloudia/internal/solver/greedy"
	"cloudia/internal/solver/mip"
	"cloudia/internal/solver/random"
	"cloudia/internal/solver/solvertest"
)

// TestNewPortfolioMembers pins the served portfolio's members and their
// order: the winner is picked in member-index order on ties, so the order is
// part of the advice.
func TestNewPortfolioMembers(t *testing.T) {
	const k, seed = 20, 7
	want := []solver.Solver{
		cp.New(k, seed),
		greedy.New(greedy.G2),
		random.NewLocal(seed),
		anneal.New(seed),
		anneal.New(seed + 0x51ed),
		anneal.New(seed + 2*0x51ed),
	}
	if got := NewPortfolio(k, seed).Members; !reflect.DeepEqual(got, want) {
		t.Fatalf("NewPortfolio(%d, %d) members = %#v, want %#v", k, seed, got, want)
	}
}

// corpusProblem is one problem of portfolioCorpus and the seed it was drawn
// with, which the portfolios under test run with too.
type corpusProblem struct {
	name string
	seed int64
	p    *solver.Problem
}

// portfolioCorpus is the measured corpus behind the portfolio's membership:
// mesh 10x10 and bipartite 20x80 (longest link), aggregation tree 3x4,
// two-level 8x64 and an 80-node random DAG (longest path), each over a
// simulated EC2 allocation with the paper's 10% over-allocation, at seeds
// 1-4.
func portfolioCorpus(t *testing.T) []corpusProblem {
	t.Helper()
	type shape struct {
		name  string
		obj   solver.Objective
		graph func(seed int64) (*core.Graph, error)
	}
	shapes := []shape{
		{"mesh10x10", solver.LongestLink, func(int64) (*core.Graph, error) { return core.Mesh2D(10, 10) }},
		{"bipartite20x80", solver.LongestLink, func(int64) (*core.Graph, error) { return core.Bipartite(20, 80) }},
		{"tree3x4", solver.LongestPath, func(int64) (*core.Graph, error) { return core.AggregationTree(3, 4) }},
		{"twolevel8x64", solver.LongestPath, func(int64) (*core.Graph, error) { return core.TwoLevelAggregation(8, 64) }},
		{"dag80", solver.LongestPath, func(seed int64) (*core.Graph, error) {
			return core.RandomDAG(80, 0.05, rand.New(rand.NewSource(seed)))
		}},
	}
	var probs []corpusProblem
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			g, err := sh.graph(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sh.name, seed, err)
			}
			p, err := solvertest.Realistic(g, OverAllocate(g.NumNodes(), 0.1), sh.obj, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sh.name, seed, err)
			}
			probs = append(probs, corpusProblem{fmt.Sprintf("%s/seed%d", sh.name, seed), seed, p})
		}
	}
	return probs
}

// TestPortfolioDroppedMembersNeverDecide pins that MIP and G1, which the
// served portfolio no longer runs, never decided its result: on the corpus
// the measurement was taken on, the old eight-member list (CP, MIP, G1, G2,
// R2L, three SA restarts, with the seeds it ran) and NewPortfolio return the
// same cost and the same deployment. Under a node budget every member's
// search is a function of its seed, so a member that never wins can change
// neither the cost nor, unless it tied the winner at a lower index, the
// deployment.
func TestPortfolioDroppedMembersNeverDecide(t *testing.T) {
	if testing.Short() {
		t.Skip("races two portfolios on 20 problems")
	}
	const clusterK = 20
	budget := solver.Budget{Nodes: 30_000}
	for _, c := range portfolioCorpus(t) {
		p, seed := c.p, c.seed
		old := solver.NewPortfolio(
			cp.New(clusterK, seed),
			mip.New(clusterK, seed),
			greedy.New(greedy.G1),
			greedy.New(greedy.G2),
			random.NewLocal(seed),
			anneal.New(seed),
			anneal.New(seed+0x51ed),
			anneal.New(seed+2*0x51ed),
		)
		// Fresh problems per portfolio, so neither reads the other's Prep.
		fresh := func() *solver.Problem {
			q, err := solver.NewProblem(p.Graph, p.Costs, p.Objective)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		want, err := old.Solve(fresh(), budget)
		if err != nil {
			t.Fatalf("%s: old portfolio: %v", c.name, err)
		}
		got, err := NewPortfolio(clusterK, seed).Solve(fresh(), budget)
		if err != nil {
			t.Fatalf("%s: portfolio: %v", c.name, err)
		}
		if got.Cost != want.Cost || !reflect.DeepEqual(got.Deployment, want.Deployment) {
			t.Errorf("%s: portfolio cost %v (winner %s), old list %v (winner %s)",
				c.name, got.Cost, got.Winner, want.Cost, want.Winner)
		}
	}
}
