package main

import (
	"net/http"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/serve"
	"cloudia/internal/solver"
)

// clusterK is the cost-cluster count the daemon's default portfolio uses.
const clusterK = 20

// adviseCall is one advise the traced runs replay: the request as the Go
// API sees it and the matrices it searches, as the generator mirrors them.
type adviseCall struct {
	refused []byte // the body, for the tenant's absent twin (see shadow.frontEnd)
	req     serve.AdviseRequest
	primary *core.CostMatrix // the matrix searched: mean, or the p99 tail
	tie     *core.CostMatrix // the mean, for percentile metrics
	fp      core.Fingerprint // primary's fingerprint, the cache key
	warm    core.Deployment  // the tenant's last advice, nil for a cold start
	solo    bool             // also run each portfolio member solo
}

// replayAdvise times one advise's layers under the path span root: the
// shadow's HTTP front end on the same request (see shadow.frontEnd), the
// shadow's Daemon.Advise — split into queue and run by its Result — and,
// under the run, the solve it hides on a mirror Problem: problem build, the
// Prep artifacts through a mirror cache (k-means on a miss), and the
// portfolio.
func (r *runner) replayAdvise(p *phase, reqID int64, root int, sh *shadow, mc *serve.Cache, a adviseCall) {
	tr := p.tr
	p.add("http.request_bytes", float64(len(a.refused)))
	var err error
	tr.replay(reqID, root, "http.advise", func() {
		err = sh.frontEnd("/v1/advise", a.refused, http.StatusNotFound, "unknown_tenant")
	})
	if err != nil {
		r.wrongf("%v", err)
		return
	}
	start := time.Now()
	res, err := sh.d.Advise(a.req)
	end := time.Now()
	id := tr.add(reqID, root, "serve.advise", kindReplay, start, end)
	if err == nil {
		err = res.Err
	}
	if err != nil {
		r.wrongf("shadow Advise for %s: %v", a.req.Tenant, err)
		return
	}
	tr.add(reqID, id, "serve.queue", kindReplay, start, start.Add(res.Queued))
	run := tr.add(reqID, id, "serve.run", kindReplay, start.Add(res.Queued), start.Add(res.Queued+res.Ran))

	var prob *solver.Problem
	tr.replay(reqID, run, "prep.new_problem", func() {
		prob, err = solver.NewProblemTie(a.req.Graph, a.primary, a.tie, solver.LongestLink)
	})
	if err != nil {
		r.wrongf("mirror problem for %s: %v", a.req.Tenant, err)
		return
	}
	prep := prob.Prep()
	var hit bool
	rounded := tr.replay(reqID, run, "prep.rounded", func() { hit, err = mc.Rounded(a.fp, clusterK, prep) })
	if err != nil {
		r.wrongf("mirror Prep for %s: %v", a.req.Tenant, err)
		return
	}
	if !hit {
		r.kmeans(p, reqID, rounded, prep)
	}
	tr.replay(reqID, run, "prep.cheapest_rows", func() { mc.CheapestRows(a.fp, prep) })
	if a.warm != nil {
		if err := prep.WarmStart(a.warm); err != nil {
			r.wrongf("mirror warm start for %s: %v", a.req.Tenant, err)
			return
		}
	}
	r.solve(p, reqID, run, prob, a.req.RoundBudget, a.req.Seed, a.solo)
}

// kmeans probes the k-means a cold Prep.Rounded runs: the off-diagonal
// extraction and cluster.KMeans1D over it. They are probes, not part of the
// breakdown: Rounded clusters the same values in sorted order, which
// costs less than clustering them unsorted.
func (r *runner) kmeans(p *phase, reqID int64, parent int, prep *solver.Prep) {
	var off []float64
	p.tr.probe(reqID, parent, "prep.offdiag", func() { off = prep.OffDiagonal() })
	var err error
	p.tr.probe(reqID, parent, "cluster.kmeans", func() { _, err = cluster.KMeans1D(off, clusterK) })
	if err != nil {
		r.wrongf("k-means: %v", err)
	}
	p.add("cluster.kmeans_values", float64(len(off)))
}

// solve times the default portfolio on prob, and with solo set each of its
// members alone at the same budget and seed.
func (r *runner) solve(p *phase, reqID int64, parent int, prob *solver.Problem, budget solver.Budget, seed int64, solo bool) *solver.Result {
	var res *solver.Result
	var err error
	p.tr.replay(reqID, parent, "solver.portfolio", func() {
		res, err = advisor.NewPortfolio(clusterK, seed).Solve(prob, budget)
	})
	if err != nil {
		r.wrongf("mirror portfolio: %v", err)
		return nil
	}
	p.add("solver.nodes", float64(res.Nodes))
	if solo {
		for _, m := range advisor.NewPortfolio(clusterK, seed).Members {
			p.tr.probe(reqID, parent, "solver.member."+memberKey(m.Name()), func() {
				if _, err := m.Solve(prob, budget); err != nil {
					r.wrongf("solo %s: %v", m.Name(), err)
				}
			})
		}
	}
	return res
}

// soloTurn reports whether this traced solve runs the members solo too:
// the first, then every every-th.
func (p *phase) soloTurn(every int) bool {
	return (int(p.count("solo.turn", 1))-1)%every == 0
}

// countRound tallies one solve round's outcome: a round improved when a
// member beat the carried incumbent, and that member won it.
func (p *phase) countRound(winner string) {
	p.count("advisor.rounds", 1)
	if winner != "" {
		p.count("advisor.improved", 1)
		p.count("solver.wins."+memberKey(winner), 1)
	}
}
