package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/serve"
	"cloudia/internal/solver"
)

// cold is a new tenant's cold start at the 1000-instance tier. Two tenants
// alternate; each iteration posts a full epoch in which every row changes
// (so its fingerprint is new and the cache misses), then a streaming advise
// without warm start. The matrix is the EC2-profile mean RTT with ±5%
// per-link noise seeded per iteration. First advice is timed from the
// epoch POST's first byte to the first NDJSON round line.
type cold struct {
	r       *runner
	h       *harness
	c       *client
	base    *core.CostMatrix
	graph   *core.Graph
	advise  [2][]byte
	refused [2][]byte // advise bodies for the tenants' absent twins
	epochs  [2]int
	buf     []byte
	iter    int
}

// coldStep is one generated full epoch and its encoded POST body.
type coldStep struct {
	tenant int
	s      epochStep
	m      *core.CostMatrix
	body   []byte
}

func runCold(r *runner) error {
	sz := r.sz
	cd := &cold{r: r, c: newClient()}
	base, err := ec2Matrix(0, sz.coldN)
	if err != nil {
		return err
	}
	g, graphJSON, err := sparseGraph(sz.coldNodes)
	if err != nil {
		return err
	}
	cd.base, cd.graph = base, g
	for a := range cd.advise {
		cd.advise[a] = adviseBody(coldTenant(a), graphJSON, "mean", sz.coldBudget, cd.seed(a), true, true)
		// A refused streaming advise still answers 200, so the absent
		// twin's body asks for a plain reply; decoding it costs the same.
		cd.refused[a] = adviseBody(coldTenant(a)+absent, graphJSON, "mean", sz.coldBudget, cd.seed(a), true, false)
	}
	// Set-up gives both tenants a first matrix, so that every measured
	// iteration replaces a tenant's whole matrix.
	first := []coldStep{cd.next(nil), cd.next(nil)}
	err = r.setup(func() (func() error, error) {
		h, err := openHarness(r.scratch("cold"))
		if err != nil {
			return nil, err
		}
		cd.h = h
		for _, st := range first {
			raw, err := cd.c.post(h.url+"/v1/epoch", st.body)
			if err == nil {
				err = checkAck(raw, coldTenant(st.tenant), st.s.epoch, st.s.fp)
			}
			if err != nil {
				return h.close, fmt.Errorf("first epoch of %s: %w", coldTenant(st.tenant), err)
			}
		}
		return h.close, nil
	})
	if err != nil {
		return err
	}
	first = nil

	for _, p := range r.phases {
		var sh *shadow
		var mc *serve.Cache
		var mirrors [2]*epochMirror
		if p.tr != nil {
			if sh, err = openShadow(r); err != nil {
				return err
			}
			// Every iteration's matrix is new, so the mirror cache never
			// hits; one entry bounds its memory.
			mc = serve.NewCache(1)
			for a := range mirrors {
				if mirrors[a], err = newEpochMirror(r, sh, coldTenant(a), core.NewMutableCostMatrix(sz.coldN), nil, 0); err != nil {
					return err
				}
			}
		}
		before := counters(cd.h.d)
		p.start()
		for k, n := 0, p.ops(sz.coldItersPerS); k < n; k++ {
			st := cd.next(cd.buf)
			cd.buf = st.body
			// Generating and encoding the matrix allocates tens of MB;
			// collect it here so the cold start is not charged for the
			// benchmark's garbage.
			runtime.GC()
			cd.coldStart(p, sh, mc, mirrors[st.tenant], st)
		}
		p.stop()
		if p.tr != nil {
			p.setCounterDeltas(before, counters(cd.h.d))
		}
	}
	return nil
}

func coldTenant(a int) string { return fmt.Sprintf("cold%d", a) }

// seed is tenant a's solver seed.
func (cd *cold) seed(a int) int64 { return cd.r.opts.seed*100 + int64(a) }

// next generates the next iteration's matrix, for the tenant whose turn it
// is, and encodes its POST body into buf.
func (cd *cold) next(buf []byte) coldStep {
	a := cd.iter % 2
	rng := rand.New(rand.NewSource(cd.r.opts.seed*1_000_003 + int64(cd.iter)))
	cd.iter++
	n := cd.base.Size()
	m := core.NewCostMatrix(n)
	rows := make([]int, n)
	vals := make([][]float64, n)
	for i := range rows {
		rows[i], vals[i] = i, m.Row(i)
		noisyRow(vals[i], cd.base, i, 0.05, rng)
	}
	cd.epochs[a]++
	s := epochStep{epoch: cd.epochs[a], rows: rows, vals: vals, fp: m.Fingerprint()}
	return coldStep{tenant: a, s: s, m: m, body: epochBody(buf[:0], coldTenant(a), n, rows, vals, 0, nil)}
}

// coldStart times one iteration's epoch POST and streaming advise.
func (cd *cold) coldStart(p *phase, sh *shadow, mc *serve.Cache, mirror *epochMirror, st coldStep) {
	tenant := coldTenant(st.tenant)
	start := time.Now()
	raw, err := cd.c.post(cd.h.url+"/v1/epoch", st.body)
	acked := time.Now()
	if err == nil {
		err = checkAck(raw, tenant, st.s.epoch, st.s.fp)
	}
	cd.r.op(p, err)
	if err != nil {
		return
	}
	first, rounds, final, err := cd.c.postStream(cd.h.url+"/v1/advise", cd.advise[st.tenant])
	done := time.Now()
	var imp float64
	if err == nil {
		imp, err = checkAdvice(final, cd.graph, st.m)
	}
	if err == nil && (len(rounds) == 0 || len(rounds) != *final.Rounds) {
		err = fmt.Errorf("advice streamed %d round lines, final line says %d", len(rounds), *final.Rounds)
	}
	cd.r.op(p, err)
	if err != nil {
		return
	}
	p.add(primary, msOf(first.Sub(start)))
	p.add("path.first_advice_ms", msOf(first.Sub(start)))
	p.add("path.final_advice_ms", msOf(done.Sub(start)))
	p.add("path.epoch_ack_ms", msOf(acked.Sub(start)))
	p.add("path.advise_ms", msOf(done.Sub(acked)))
	cd.r.addImprovement(imp)
	if sh == nil {
		return
	}

	for _, r := range rounds {
		winner := ""
		if r.Improved {
			winner = r.Winner
		}
		p.countRound(winner)
	}
	req := p.tr.newReq()
	root := p.tr.add(req, 0, "path.first_advice", kindPath, start, first)
	cd.r.replayEpoch(p, req, root, sh, mirror, tenant, st.s)
	cd.r.replayAdvise(p, req, root, sh, mc, adviseCall{
		refused: cd.refused[st.tenant],
		req: serve.AdviseRequest{Tenant: tenant, Graph: cd.graph,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
			RoundBudget:   solver.Budget{Nodes: cd.r.sz.coldBudget}, Seed: cd.seed(st.tenant), NoWarmStart: true},
		primary: st.m, fp: st.s.fp,
		solo: p.soloTurn(cd.r.sz.soloEvery),
	})
}
