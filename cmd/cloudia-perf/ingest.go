package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"cloudia/internal/core"
	"cloudia/internal/serve"
)

// ingest is the writes-only mix: tenants post epochs of changed rows (mean
// and p99 tail) and nothing is solved. An open loop at a fixed rate times
// each ack from when the epoch was due, then a closed loop of two
// connections measures capacity. At the end the daemon is closed and
// reopened: every tenant must recover its last acknowledged epoch, and its
// advice over the recovered matrix must check against the generator's.
type ingest struct {
	r       *runner
	h       *harness
	c       *client
	tenants []*ingestTenant
	graph   *core.Graph
}

type ingestTenant struct {
	name   string
	gen    *epochGen
	buf    []byte
	advise []byte

	// Traced phases replay on this.
	mirror *epochMirror
}

func runIngest(r *runner) error {
	sz := r.sz
	if sz.ingestTenants%2 != 0 {
		return fmt.Errorf("ingest needs an even tenant count, so each load goroutine owns its tenants")
	}
	ig := &ingest{r: r, c: newClient()}
	base, err := ec2Matrix(0, sz.ingestN)
	if err != nil {
		return err
	}
	g, graphJSON, err := sparseGraph(sz.fleetNodes)
	if err != nil {
		return err
	}
	ig.graph = g
	var first [][]byte
	var steps []epochStep
	for i := 0; i < sz.ingestTenants; i++ {
		t := &ingestTenant{name: fmt.Sprintf("t%02d", i), gen: newEpochGen(base, r.opts.seed*1000+int64(i), sz.ingestRows)}
		t.advise = adviseBody(t.name, graphJSON, "mean", sz.fleetBudget, r.opts.seed*100+int64(i), false, false)
		s := t.gen.full()
		steps = append(steps, s)
		first = append(first, epochBody(nil, t.name, sz.ingestN, s.rows, s.vals, tailPct, s.tail))
		ig.tenants = append(ig.tenants, t)
	}
	err = r.setup(func() (func() error, error) {
		h, err := openHarness(r.scratch("ingest"))
		if err != nil {
			return nil, err
		}
		ig.h = h
		for i, t := range ig.tenants {
			raw, err := ig.c.post(h.url+"/v1/epoch", first[i])
			if err == nil {
				err = checkAck(raw, t.name, steps[i].epoch, steps[i].fp)
			}
			if err != nil {
				return h.close, fmt.Errorf("initial epoch of %s: %w", t.name, err)
			}
		}
		return h.close, nil
	})
	if err != nil {
		return err
	}
	first, steps = nil, nil

	for _, p := range r.phases {
		if p.tr == nil {
			start := p.start()
			ig.openLoop(p, start, p.ops(sz.ingestOpenPerS), nil)
			ig.capacity(p, p.ops(sz.ingestCapPerS))
			p.stop()
			continue
		}
		sh, err := openShadow(r)
		if err != nil {
			return err
		}
		for _, t := range ig.tenants {
			if err := sh.seed(t.name, t.gen); err != nil {
				return err
			}
			if t.mirror, err = newEpochMirror(r, sh, t.name, copyMutable(t.gen.mean), copyMutable(t.gen.tail), 1); err != nil {
				return err
			}
		}
		before := counters(ig.h.d)
		start := p.start()
		ig.openLoop(p, start, p.ops(sz.ingestOpenPerS), sh)
		p.stop()
		p.setCounterDeltas(before, counters(ig.h.d))
	}
	return ig.durability()
}

// openLoop sends total epochs, one every 1/rate seconds from start,
// round-robin over the tenants, from two load goroutines; goroutine g sends
// epochs g, g+2, ..., so with an even tenant count it owns half the tenants
// and their epochs stay in order. Each ack is timed from when its epoch was
// due, so a stall counts against every epoch it delays. Non-nil shadows
// trace each epoch and replay it on the shadows and the tenant's mirror.
func (ig *ingest) openLoop(p *phase, start time.Time, total int, sh *shadow) {
	rate := ig.r.sz.ingestRate
	lags := make([]time.Duration, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < total; k += 2 {
				t := ig.tenants[k%len(ig.tenants)]
				s := t.gen.next()
				t.buf = epochBody(t.buf[:0], t.name, t.gen.n, s.rows, s.vals, tailPct, s.tail)
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				if lag := sent.Sub(due); lag > lags[g] {
					lags[g] = lag
				}
				raw, err := ig.c.post(ig.h.url+"/v1/epoch", t.buf)
				done := time.Now()
				if err == nil {
					err = checkAck(raw, t.name, s.epoch, s.fp)
				}
				ig.r.op(p, err)
				if err != nil {
					continue
				}
				p.add(primary, msOf(done.Sub(due)))
				p.add("path.epoch_ack_ms", msOf(done.Sub(due)))
				if sh != nil {
					req := p.tr.newReq()
					root := p.tr.add(req, 0, "path.epoch_ack", kindPath, sent, done)
					ig.r.replayEpoch(p, req, root, sh, t.mirror, t.name, s)
				}
			}
		}(g)
	}
	wg.Wait()
	p.set("loadgen.lag_ms_max", msOf(max(lags[0], lags[1])))
}

// capacity runs two closed-loop connections that post total epochs between
// them, each its own tenants' epochs back to back.
func (ig *ingest) capacity(p *phase, total int) {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < total; k += 2 {
				t := ig.tenants[k%len(ig.tenants)]
				s := t.gen.next()
				t.buf = epochBody(t.buf[:0], t.name, t.gen.n, s.rows, s.vals, tailPct, s.tail)
				raw, err := ig.c.post(ig.h.url+"/v1/epoch", t.buf)
				if err == nil {
					err = checkAck(raw, t.name, s.epoch, s.fp)
				}
				ig.r.op(p, err)
				if err == nil {
					p.add("capacity.done", time.Since(start).Seconds())
				}
			}
		}(g)
	}
	wg.Wait()
	p.set("path.epoch_capacity_per_s", windowRate(p.get("capacity.done"), 100))
}

// durability closes the daemon, reopens it from the same directory, and
// checks that every tenant recovered its last acknowledged epoch and
// fingerprint, then that every fourth tenant's advice over the recovered
// matrix checks against the generator's copy of it; four cold solves keep
// the check short.
func (ig *ingest) durability() error {
	dir := ig.h.dir
	if err := ig.h.close(); err != nil {
		return err
	}
	h, err := openHarness(dir)
	if err != nil {
		return fmt.Errorf("reopening the daemon: %w", err)
	}
	ig.h = h
	ig.r.teardowns = append(ig.r.teardowns, h.close)
	recovered := map[string]serve.TenantStatus{}
	for _, st := range h.d.Stats().Tenants {
		recovered[st.Tenant] = st
	}
	for i, t := range ig.tenants {
		st, ok := recovered[t.name]
		if want := t.gen.mean.Fingerprint(); !ok || st.Epoch != t.gen.epoch || st.Fingerprint != want {
			ig.r.wrongf("tenant %s recovered epoch %d fingerprint %s, last ack was epoch %d fingerprint %s",
				t.name, st.Epoch, fpHex(st.Fingerprint), t.gen.epoch, fpHex(want))
			continue
		}
		if i%4 != 0 {
			continue
		}
		raw, err := ig.c.post(h.url+"/v1/advise", t.advise)
		var reply adviceReply
		if err == nil {
			err = json.Unmarshal(raw, &reply)
		}
		var imp float64
		if err == nil {
			mean, _ := t.gen.matrices()
			imp, err = checkAdvice(reply, ig.graph, mean)
		}
		ig.r.op(nil, err)
		if err == nil {
			ig.r.addImprovement(imp)
		}
	}
	return nil
}
