package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/cloud"
	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
)

// cliStream is the paper's own pipeline, the CLI's -stream path:
// advisor.StreamingAdvise on a fresh provider per iteration, seeded with the
// iteration number so every run allocates the same sequence — allocate with
// 10% over-allocation, staged measurement published as 8 epochs with p99
// sketches, a portfolio round per epoch under a node budget, terminate the
// extra instances.
type cliStream struct {
	r     *runner
	dc    *topology.Datacenter
	graph *core.Graph
	iter  int
}

// cliOccupancy is `cloudia`'s default datacenter occupancy.
const cliOccupancy = 0.6

// cliRounds is the epoch count: one epoch every eighth of the measurement,
// as `cloudia -stream` publishes them.
const cliRounds = 8

func runCLIStream(r *runner) error {
	sz := r.sz
	cs := &cliStream{r: r}
	err := r.setup(func() (func() error, error) {
		dc, err := ec2Datacenter()
		if err != nil {
			return nil, err
		}
		g, err := core.Mesh2D(sz.cliRows, sz.cliCols)
		if err != nil {
			return nil, err
		}
		cs.dc, cs.graph = dc, g
		return func() error { return nil }, nil
	})
	if err != nil {
		return err
	}
	for _, p := range r.phases {
		p.start()
		for k, n := 0, p.ops(sz.cliItersPerS); k < n; k++ {
			cs.iteration(p)
		}
		p.stop()
	}
	return nil
}

// seed drives the iteration's measurement and solver seeds.
func (cs *cliStream) seed(iter int) int64 { return cs.r.opts.seed*1000 + int64(iter) }

// instances is how many instances a run allocates: 10% over the graph.
func (cs *cliStream) instances() int { return advisor.OverAllocate(cs.graph.NumNodes(), 0.1) }

// measureMS is the measurement's virtual duration, 20 ms per instance:
// `cloudia -stream`'s default.
func (cs *cliStream) measureMS() float64 { return 20 * float64(cs.instances()) }

func (cs *cliStream) spec() advisor.ObjectiveSpec {
	return advisor.ObjectiveSpec{Objective: solver.LongestLink, Metric: advisor.MetricP99, Scheme: measure.Staged}
}

func (cs *cliStream) roundBudget() solver.Budget { return solver.Budget{Nodes: cs.r.sz.cliRoundBudget} }

// iteration times one StreamingAdvise call.
func (cs *cliStream) iteration(p *phase) {
	iter := cs.iter
	cs.iter++
	prov, err := cloud.NewProvider(cs.dc, cliOccupancy, int64(iter))
	if err != nil {
		cs.r.op(p, err)
		return
	}
	// Each call stands for a fresh CLI process: it starts on a collected
	// heap, not on the garbage of the call before.
	runtime.GC()
	start := time.Now()
	rep, err := advisor.StreamingAdvise(prov, advisor.StreamingConfig{
		Config: advisor.Config{
			Graph:             cs.graph,
			ObjectiveSpec:     cs.spec(),
			OverAllocation:    0.1,
			MeasureDurationMS: cs.measureMS(),
			SolverName:        "portfolio",
			Seed:              cs.seed(iter),
		},
		EpochMS:     cs.measureMS() / cliRounds,
		RoundBudget: cs.roundBudget(),
	})
	done := time.Now()
	if err == nil {
		err = cs.check(rep)
	}
	cs.r.op(p, err)
	if err != nil {
		return
	}
	p.add(primary, msOf(done.Sub(start)))
	p.add("path.final_advice_ms", msOf(done.Sub(start)))
	p.add("path.first_advice_ms", msOf(rep.FirstAdvice))
	cs.r.addImprovement(100 * rep.Improvement())
	if p.tr == nil {
		return
	}
	var prev time.Duration
	for _, rd := range rep.Rounds {
		p.add("advisor.round_ms", msOf(rd.Elapsed-prev))
		prev = rd.Elapsed
		p.countRound(rd.Winner)
	}
	req := p.tr.newReq()
	root := p.tr.add(req, 0, "path.final_advice", kindPath, start, done)
	cs.replay(p, req, root, iter, rep)
}

// check verifies a report: one round per epoch, a valid deployment of
// every node, and tuned and default costs that recompute under the final
// p99 matrix the measurement produced.
func (cs *cliStream) check(rep *advisor.StreamingReport) error {
	n := cs.graph.NumNodes()
	if len(rep.Rounds) != cliRounds {
		return fmt.Errorf("streaming run took %d rounds, want %d", len(rep.Rounds), cliRounds)
	}
	if len(rep.AllInstances) != cs.instances() {
		return fmt.Errorf("allocated %d instances, want %d", len(rep.AllInstances), cs.instances())
	}
	if len(rep.Deployment) != n || len(rep.TerminatedIDs) != len(rep.AllInstances)-n {
		return fmt.Errorf("deployment places %d nodes and terminates %d instances", len(rep.Deployment), len(rep.TerminatedIDs))
	}
	if err := rep.Deployment.Validate(len(rep.AllInstances)); err != nil {
		return err
	}
	tail, err := rep.Measurement.TailMatrix(99)
	if err != nil {
		return err
	}
	if got := core.LongestLink(rep.Deployment, cs.graph, tail); got != rep.TunedCost {
		return fmt.Errorf("tuned cost %v, final p99 matrix gives %v", rep.TunedCost, got)
	}
	if got := core.LongestLink(core.Identity(n), cs.graph, tail); got != rep.DefaultCost {
		return fmt.Errorf("default cost %v, final p99 matrix gives %v", rep.DefaultCost, got)
	}
	if rep.TunedCost > rep.DefaultCost {
		return fmt.Errorf("tuned cost %v above the default deployment's %v", rep.TunedCost, rep.DefaultCost)
	}
	return nil
}

// replay redoes one StreamingAdvise call layer by layer with the same
// inputs: the allocation, the measurement drained without solving, then
// advisor.SolveStream over the drained epochs. SolveStream's hooks split
// each round into its problem build or evolve, the Prep artifacts (built
// ahead of the solver, which then finds them made) and the portfolio
// solve. The replayed advice must equal the call's.
func (cs *cliStream) replay(p *phase, req int64, root, iter int, rep *advisor.StreamingReport) {
	r, tr := cs.r, p.tr
	prov, err := cloud.NewProvider(cs.dc, cliOccupancy, int64(iter))
	if err != nil {
		r.wrongf("replay provider: %v", err)
		return
	}
	var inst []cloud.Instance
	tr.replay(req, root, "cloud.run_instances", func() { inst, err = prov.RunInstances(cs.instances()) })
	if err != nil {
		r.wrongf("replay allocation: %v", err)
		return
	}
	var epochs []measure.Epoch
	streamStart := time.Now()
	tr.replay(req, root, "measure.stream", func() {
		var st *measure.Streamer
		st, err = measure.Stream(cs.dc, inst, measure.Options{Scheme: cs.spec().Scheme, DurationMS: cs.measureMS(),
			Seed: cs.seed(iter), SnapshotEveryMS: cs.measureMS() / cliRounds, TailAlpha: measure.DefaultTailAlpha})
		if err != nil {
			return
		}
		for ep := range st.Epochs {
			if epochs == nil {
				tr.add(req, 0, "measure.first_epoch", kindProbe, streamStart, time.Now())
			}
			epochs = append(epochs, ep)
		}
		st.Wait()
	})
	if err != nil {
		r.wrongf("replay measurement: %v", err)
		return
	}
	ch := make(chan measure.Epoch, len(epochs))
	for _, ep := range epochs {
		ch <- ep
	}
	close(ch)

	solve := tr.begin(req, root, "advisor.solve_stream", kindReplay)
	var first *solver.Prep
	mark := time.Now() // where the span the next hook closes began
	out, err := advisor.SolveStream(ch, advisor.StreamSolveConfig{
		Graph: cs.graph, ObjectiveSpec: cs.spec(), SolverName: "portfolio", RoundBudget: cs.roundBudget(), Seed: cs.seed(iter),
		OnProblem: func(prob, prev *solver.Problem, _ measure.Epoch, _ []int) error {
			build := "prep.evolve"
			if prev == nil {
				build = "prep.new_problem"
				first = prob.Prep()
			}
			tr.add(req, solve, build, kindReplay, mark, time.Now())
			var err error
			tr.replay(req, solve, "prep.rounded", func() { _, _, err = prob.Prep().Rounded(clusterK) })
			tr.replay(req, solve, "prep.cheapest_rows", func() { prob.Prep().CheapestRows() })
			mark = time.Now()
			return err
		},
		OnRound: func(advisor.Round) {
			now := time.Now()
			tr.add(req, solve, "solver.portfolio", kindReplay, mark, now)
			mark = now
		},
	})
	tr.end(solve)
	switch {
	case err != nil:
		r.wrongf("replayed SolveStream: %v", err)
	case out.Cost != rep.TunedCost || !slices.Equal(out.Deployment, rep.Deployment):
		r.wrongf("replayed SolveStream advises cost %v, the call advised %v", out.Cost, rep.TunedCost)
	default:
		cs.probeClustering(p, req, solve, first, epochs)
	}
}

// probeClustering probes, after the replayed solve, the clustering its
// first round ran and the incremental patching that keeps the rounded
// matrix and its sorted pairs current while later epochs change rows.
func (cs *cliStream) probeClustering(p *phase, req int64, parent int, first *solver.Prep, epochs []measure.Epoch) {
	r, tr := cs.r, p.tr
	r.kmeans(p, req, parent, first)
	var rounded *core.CostMatrix
	var pairs []core.CostPair
	var fit *cluster.Result
	for k, ep := range epochs {
		tail := ep.Tail(99)
		if tail == nil {
			r.wrongf("epoch %d carries no p99 matrix", ep.Index)
			return
		}
		if k == 0 {
			var err error
			if rounded, pairs, fit, err = cluster.RoundCostMatrixPairsResult(tail.Matrix, clusterK); err != nil {
				r.wrongf("clustering the first epoch: %v", err)
				return
			}
			continue
		}
		var next *core.CostMatrix
		tr.probe(req, parent, "cluster.patch_rows", func() {
			next = cluster.PatchRoundedRows(tail.Matrix, rounded, fit, tail.ChangedRows)
		})
		tr.probe(req, parent, "cluster.patch_pairs", func() {
			pairs = cluster.PatchSortedPairs(next, pairs, tail.ChangedRows)
		})
		rounded = next
	}
}
