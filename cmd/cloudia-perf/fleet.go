package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/serve"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// fleet is the steady-state daemon: advise requests next to epoch writes.
// Four groups of two tenants; a group's tenants are fed by one measurement,
// so they post identical epochs and share cache fingerprints. Groups 0-1
// advise on the mean, groups 2-3 on the p99 tail. Two closed-loop clients
// each own two groups and cycle through a fixed schedule: one group epoch
// (two POSTs), then one advise for each of their four tenants, alternating
// the group the epoch goes to. The first advise after an epoch misses the
// cache and the group's second tenant hits the artifacts it built. Owning
// whole groups keeps every tenant's requests in order, so advice is
// deterministic. The seed drives the epochs' contents and the solver seeds.
// Set-up posts every group's first epoch; a tenant's first advise, in the
// first cycle, starts without an incumbent. The phase ends with restarts:
// close, reopen from the same directory, wait for /healthz, and advise
// every tenant, whose first advice must come entirely from the re-seeded
// cache.
type fleet struct {
	r      *runner
	h      *harness
	c      *client
	graph  *core.Graph
	groups []*fleetGroup
}

type fleetGroup struct {
	metric  string
	tenants [2]string
	seeds   [2]int64
	gen     *epochGen
	advise  [2][]byte
	refused [2][]byte // advise bodies for the tenants' absent twins
	last    [2]core.Deployment
	buf     []byte

	// Traced phases replay on these.
	mirrors [2]*epochMirror
}

const fleetGroups = 4

func runFleet(r *runner) error {
	sz := r.sz
	f := &fleet{r: r, c: newClient()}
	g, graphJSON, err := sparseGraph(sz.fleetNodes)
	if err != nil {
		return err
	}
	f.graph = g
	// Every group's first epoch, encoded once for all set-ups.
	var first [][2][]byte
	var firstStep []epochStep
	for gi := 0; gi < fleetGroups; gi++ {
		// Each group measures its own allocation.
		base, err := ec2Matrix(int64(gi), sz.fleetN)
		if err != nil {
			return err
		}
		grp := &fleetGroup{metric: "mean", gen: newEpochGen(base, r.opts.seed*1000+100+int64(gi), sz.ingestRows)}
		if gi >= fleetGroups/2 {
			grp.metric = "p99"
		}
		s := grp.gen.full()
		var bodies [2][]byte
		for a := range grp.tenants {
			grp.tenants[a] = fmt.Sprintf("g%d%c", gi, 'a'+a)
			grp.seeds[a] = r.opts.seed*100 + int64(2*gi+a)
			grp.advise[a] = adviseBody(grp.tenants[a], graphJSON, grp.metric, sz.fleetBudget, grp.seeds[a], false, false)
			grp.refused[a] = adviseBody(grp.tenants[a]+absent, graphJSON, grp.metric, sz.fleetBudget, grp.seeds[a], false, false)
			bodies[a] = epochBody(nil, grp.tenants[a], sz.fleetN, s.rows, s.vals, tailPct, s.tail)
		}
		first = append(first, bodies)
		firstStep = append(firstStep, s)
		f.groups = append(f.groups, grp)
	}
	err = r.setup(func() (func() error, error) {
		h, err := openHarness(r.scratch("fleet"))
		if err != nil {
			return nil, err
		}
		f.h = h
		// Restarts replace f.h; the teardown closes the current one.
		td := func() error { return f.h.close() }
		for gi, grp := range f.groups {
			for a, t := range grp.tenants {
				raw, err := f.c.post(h.url+"/v1/epoch", first[gi][a])
				if err == nil {
					err = checkAck(raw, t, firstStep[gi].epoch, firstStep[gi].fp)
				}
				if err != nil {
					return td, fmt.Errorf("initial epoch of %s: %w", t, err)
				}
			}
		}
		return td, nil
	})
	if err != nil {
		return err
	}
	first, firstStep = nil, nil

	for _, p := range r.phases {
		var sh *shadow
		var mc *serve.Cache
		if p.tr != nil {
			if sh, err = openShadow(r); err != nil {
				return err
			}
			mc = serve.NewCache(fleetGroups)
			for _, grp := range f.groups {
				for a, t := range grp.tenants {
					if err := sh.seed(t, grp.gen); err != nil {
						return err
					}
					if grp.mirrors[a], err = newEpochMirror(r, sh, t, copyMutable(grp.gen.mean), copyMutable(grp.gen.tail), 1); err != nil {
						return err
					}
				}
			}
		}
		before := counters(f.h.d)
		p.start()
		f.clients(p, p.ops(sz.fleetCyclesPerS), sh, mc)
		if p.tr != nil {
			p.setCounterDeltas(before, counters(f.h.d))
		}
		err := f.restarts(p, p.ops(sz.fleetRestartsPerS))
		p.stop()
		if err != nil {
			return err
		}
	}
	return nil
}

// matrix returns what the group's tenants search: the mean, or the tail
// with the mean as tie-break.
func (grp *fleetGroup) matrix() (primary, tie *core.CostMatrix, fp core.Fingerprint) {
	mean, tail := grp.gen.matrices()
	if grp.metric == "mean" {
		return mean, nil, grp.gen.mean.Fingerprint()
	}
	return tail, mean, grp.gen.tail.Fingerprint()
}

// clients runs the two closed-loop clients for the given number of cycles
// each.
func (f *fleet) clients(p *phase, cycles int, sh *shadow, mc *serve.Cache) {
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own := f.groups[2*c : 2*c+2]
			for k := 0; k < cycles; k++ {
				grp := own[k%2]
				f.groupEpoch(p, grp, grp.gen.next(), sh)
				for _, g := range []*fleetGroup{grp, own[1-k%2]} {
					for a := range g.tenants {
						f.advise(p, g, a, sh, mc)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// groupEpoch posts one measurement's epoch to both tenants of the group.
func (f *fleet) groupEpoch(p *phase, grp *fleetGroup, s epochStep, sh *shadow) {
	for a, t := range grp.tenants {
		grp.buf = epochBody(grp.buf[:0], t, grp.gen.n, s.rows, s.vals, tailPct, s.tail)
		sent := time.Now()
		raw, err := f.c.post(f.h.url+"/v1/epoch", grp.buf)
		done := time.Now()
		if err == nil {
			err = checkAck(raw, t, s.epoch, s.fp)
		}
		f.r.op(p, err)
		if err != nil {
			return
		}
		p.add("path.epoch_ack_ms", msOf(done.Sub(sent)))
		if sh != nil {
			req := p.tr.newReq()
			root := p.tr.add(req, 0, "path.epoch_ack", kindPath, sent, done)
			f.r.replayEpoch(p, req, root, sh, grp.mirrors[a], t, s)
		}
	}
}

// adviseOnce posts tenant a's advise and checks the advice against the
// matrix the group posted.
func (f *fleet) adviseOnce(grp *fleetGroup, a int) (adviceReply, float64, error) {
	var reply adviceReply
	raw, err := f.c.post(f.h.url+"/v1/advise", grp.advise[a])
	if err != nil {
		return reply, 0, err
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return reply, 0, fmt.Errorf("advise reply: %w", err)
	}
	primary, _, _ := grp.matrix()
	imp, err := checkAdvice(reply, f.graph, primary)
	if err == nil && *reply.Rounds != 1 {
		err = fmt.Errorf("advice over one matrix took %d rounds", *reply.Rounds)
	}
	if err == nil {
		grp.last[a] = reply.Deployment
	}
	return reply, imp, err
}

// advise posts and times tenant a's advise and records the advice's
// improvement over the identity deployment.
func (f *fleet) advise(p *phase, grp *fleetGroup, a int, sh *shadow, mc *serve.Cache) {
	warm := grp.last[a]
	sent := time.Now()
	reply, imp, err := f.adviseOnce(grp, a)
	done := time.Now()
	f.r.op(p, err)
	if err != nil {
		return
	}
	p.add(primary, msOf(done.Sub(sent)))
	p.add("path.advise_ms", msOf(done.Sub(sent)))
	f.r.addImprovement(imp)
	if sh == nil {
		return
	}
	p.countRound(reply.Winner)
	req := p.tr.newReq()
	root := p.tr.add(req, 0, "path.advise", kindPath, sent, done)
	pri, tie, fp := grp.matrix()
	solo := p.soloTurn(f.r.sz.soloEvery)
	f.r.replayAdvise(p, req, root, sh, mc, adviseCall{
		refused: grp.refused[a],
		req: serve.AdviseRequest{Tenant: grp.tenants[a], Graph: f.graph,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink, Metric: advisor.Metric(grp.metric)},
			RoundBudget:   solver.Budget{Nodes: f.r.sz.fleetBudget}, Seed: grp.seeds[a]},
		primary: pri, tie: tie, fp: fp, warm: warm, solo: solo,
	})
}

// restarts closes and reopens the daemon the given number of times, timing
// OpenDaemon start to the first 200 from /healthz, then advises every
// tenant once; each of those advises must be served from the cache the
// reopen re-seeded.
func (f *fleet) restarts(p *phase, cycles int) error {
	for cycle := 0; cycle < cycles; cycle++ {
		dir := f.h.dir
		if err := f.h.close(); err != nil {
			return err
		}
		// A restarted daemon is a new process: it starts on a collected
		// heap, not beside the garbage of the one it replaces.
		runtime.GC()
		var req int64
		var root int
		if p.tr != nil {
			req = p.tr.newReq()
			if err := f.replayWAL(p, req, dir); err != nil {
				return err
			}
			root = p.tr.begin(req, 0, "path.restart_ready", kindPath)
		}
		start := time.Now()
		h, err := openHarness(dir)
		if err != nil {
			return fmt.Errorf("reopening the daemon: %w", err)
		}
		f.h = h
		if p.tr != nil {
			p.tr.add(req, root, "serve.open", kindReplay, start, time.Now())
		}
		err = f.c.healthy(h.url)
		ready := time.Since(start)
		if p.tr != nil {
			p.tr.end(root)
		}
		f.r.op(p, err)
		if err != nil {
			return err
		}
		p.add("path.restart_ready_ms", msOf(ready))
		for _, grp := range f.groups {
			for a := range grp.tenants {
				reply, _, err := f.adviseOnce(grp, a)
				f.r.op(p, err)
				if err == nil && *reply.CacheMisses != 0 {
					f.r.wrongf("first advise of %s after a restart missed the cache %d times", grp.tenants[a], *reply.CacheMisses)
				}
			}
		}
	}
	return nil
}

// replayWAL times wal.Open over a copy of the first tenant's log, the
// replay each tenant's recovery starts with.
func (f *fleet) replayWAL(p *phase, req int64, dir string) error {
	src := filepath.Join(dir, "tenants", hex.EncodeToString([]byte(f.groups[0].tenants[0])))
	dst := f.r.scratch("replay")
	if err := copyDir(src, dst); err != nil {
		return err
	}
	defer os.RemoveAll(dst)
	var err error
	p.tr.probe(req, 0, "wal.replay", func() {
		var l *wal.Log
		if l, err = wal.Open(dst, wal.Options{}, func(wal.Record) error { return nil }); err == nil {
			err = l.Close()
		}
	})
	return err
}
