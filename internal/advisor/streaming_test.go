package advisor

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
)

func TestStreamingAdviseValidation(t *testing.T) {
	p := provider(t, 61)
	if _, err := StreamingAdvise(p, StreamingConfig{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := meshGraph(t, 3, 3)
	if _, err := StreamingAdvise(p, StreamingConfig{
		Config: Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, OverAllocation: -1},
	}); err == nil {
		t.Fatal("negative over-allocation accepted")
	}
	if _, err := StreamingAdvise(p, StreamingConfig{
		Config: Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, SolverName: "bogus"},
	}); err == nil {
		t.Fatal("bogus solver accepted")
	}
}

// TestStreamingAdviseEndToEnd runs the full incremental pipeline on a small
// mesh and checks the report invariants: a round per epoch, first advice
// strictly before the last round, a valid final deployment with the extra
// instances terminated, and a tuned cost no worse than the default.
func TestStreamingAdviseEndToEnd(t *testing.T) {
	p := provider(t, 63)
	g := meshGraph(t, 3, 3)
	rep, err := StreamingAdvise(p, StreamingConfig{
		Config: Config{
			Graph:             g,
			ObjectiveSpec:     ObjectiveSpec{Objective: solver.LongestLink},
			OverAllocation:    0.25,
			MeasureDurationMS: 400,
			SolverBudget:      solver.Budget{Nodes: 90_000},
			Seed:              7,
		},
		EpochMS: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 400 ms at a 100 ms period: epochs at 100, 200, 300 plus the final.
	if len(rep.Rounds) != 4 {
		t.Fatalf("got %d rounds, want 4", len(rep.Rounds))
	}
	if !rep.Rounds[len(rep.Rounds)-1].Final {
		t.Fatal("last round did not consume the final epoch")
	}
	for i, r := range rep.Rounds {
		if r.Epoch != i+1 {
			t.Fatalf("round %d consumed epoch %d", i, r.Epoch)
		}
		if i > 0 && r.Cost > rep.Rounds[i-1].Cost && r.ChangedRows == 0 {
			t.Fatalf("cost rose on an unchanged matrix: round %d %g -> %g", i, rep.Rounds[i-1].Cost, r.Cost)
		}
	}
	if rep.FirstAdvice <= 0 || rep.FirstAdvice > rep.Rounds[len(rep.Rounds)-1].Elapsed {
		t.Fatalf("FirstAdvice %v outside (0, %v]", rep.FirstAdvice, rep.Rounds[len(rep.Rounds)-1].Elapsed)
	}

	n := g.NumNodes()
	if err := rep.Deployment.Validate(len(rep.AllInstances)); err != nil {
		t.Fatalf("final deployment invalid: %v", err)
	}
	if len(rep.Assignments) != n {
		t.Fatalf("%d assignments for %d nodes", len(rep.Assignments), n)
	}
	if len(rep.AllInstances)-len(rep.TerminatedIDs) != n {
		t.Fatalf("%d instances kept for %d nodes", len(rep.AllInstances)-len(rep.TerminatedIDs), n)
	}
	if rep.TunedCost > rep.DefaultCost {
		t.Fatalf("tuned cost %g worse than default %g", rep.TunedCost, rep.DefaultCost)
	}
	if rep.Measurement == nil || rep.Measurement.TotalSamples == 0 {
		t.Fatal("measurement result missing")
	}
	// The reported costs are the deployments' costs under the final
	// epoch's matrix, which is the measurement's mean matrix.
	prob, err := solver.NewProblem(g, rep.Measurement.MeanMatrix(), solver.LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	if got := prob.Cost(rep.Deployment); got != rep.TunedCost {
		t.Fatalf("TunedCost %g is not the final-matrix cost %g", rep.TunedCost, got)
	}
	if got := prob.Cost(core.Identity(n)); got != rep.DefaultCost {
		t.Fatalf("DefaultCost %g is not the final-matrix cost %g", rep.DefaultCost, got)
	}
}

// TestSolveStreamWarmStartMonotone: over a constant matrix the incumbent
// cost never rises between rounds — the warm start carries it.
func TestSolveStreamWarmStartMonotone(t *testing.T) {
	g := meshGraph(t, 3, 3)
	m := core.NewCostMatrix(12)
	rngFill(m, 67)

	ch := make(chan measure.Epoch, 4)
	ch <- measure.Epoch{Index: 1, AtMS: 1, Matrix: m.Clone()}
	for i := 2; i <= 4; i++ {
		ch <- measure.Epoch{Index: i, AtMS: float64(i), Matrix: m.Clone(), Final: i == 4}
	}
	close(ch)

	out, err := SolveStream(ch, StreamSolveConfig{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		RoundBudget:   solver.Budget{Nodes: 15_000},
		Seed:          13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rounds) != 4 {
		t.Fatalf("got %d rounds", len(out.Rounds))
	}
	for i := 1; i < len(out.Rounds); i++ {
		if out.Rounds[i].Cost > out.Rounds[i-1].Cost {
			t.Fatalf("incumbent cost rose: round %d %g -> %g", i, out.Rounds[i-1].Cost, out.Rounds[i].Cost)
		}
	}
	if out.Cost != out.Rounds[3].Cost {
		t.Fatal("outcome cost differs from the last round")
	}
	if err := out.Deployment.Validate(12); err != nil {
		t.Fatal(err)
	}
}

// TestSolveStreamFreshPrepPerEpoch: a stream that changes one row per epoch
// still gets, every round, exactly the Prep artifacts a fresh problem over
// that epoch's matrix builds — the rounded matrices and pair lists the
// clustered members search, and G1's cheapest rows — so no round's search
// depends on the epochs before it.
func TestSolveStreamFreshPrepPerEpoch(t *testing.T) {
	const instances, epochs, k = 14, 6, 20
	g := meshGraph(t, 3, 4)
	init := core.NewCostMatrix(instances)
	rngFill(init, 79)
	mm := core.NewMutableCostMatrix(instances)
	for i := 0; i < instances; i++ {
		for j := 0; j < instances; j++ {
			if i != j {
				mm.Set(i, j, init.At(i, j))
			}
		}
	}
	ch := make(chan measure.Epoch, epochs)
	for e := 1; e <= epochs; e++ {
		if e > 1 {
			row := core.NewCostMatrix(instances)
			rngFill(row, int64(80+e))
			for j := 0; j < instances; j++ {
				if j != e {
					mm.Set(e, j, row.At(e, j))
				}
			}
		}
		ch <- measure.PublishEpoch(mm, float64(e), e == epochs, 0)
	}
	close(ch)

	rounds := 0
	_, err := SolveStream(ch, StreamSolveConfig{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		RoundBudget:   solver.Budget{Nodes: 2_000},
		OnProblem: func(prob, prev *solver.Problem, ep measure.Epoch, changedRows []int) error {
			if prev != nil && len(changedRows) != 1 {
				return fmt.Errorf("epoch %d changed %d rows, want 1", ep.Index, len(changedRows))
			}
			fresh, err := solver.NewProblemTie(g, ep.Matrix, nil, solver.LongestLink)
			if err != nil {
				return err
			}
			for _, kk := range []int{0, k} {
				m, pairs, err := prob.Prep().Rounded(kk)
				if err != nil {
					return err
				}
				fm, fpairs, err := fresh.Prep().Rounded(kk)
				if err != nil {
					return err
				}
				for i := 0; i < instances; i++ {
					if !slices.Equal(m.Row(i), fm.Row(i)) {
						return fmt.Errorf("epoch %d: Rounded(%d) row %d differs from a fresh problem's", ep.Index, kk, i)
					}
				}
				if !slices.Equal(pairs, fpairs) {
					return fmt.Errorf("epoch %d: Rounded(%d) pairs differ from a fresh problem's", ep.Index, kk)
				}
			}
			rows, frows := prob.Prep().CheapestRows(), fresh.Prep().CheapestRows()
			for u := range rows {
				if !slices.Equal(rows[u], frows[u]) {
					return fmt.Errorf("epoch %d: cheapest row %d differs from a fresh problem's", ep.Index, u)
				}
			}
			rounds++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != epochs {
		t.Fatalf("OnProblem ran %d times, want %d", rounds, epochs)
	}
}

// TestSolveStreamRejectsBadInput covers the error paths: nil graph,
// unbounded rounds, empty streams, and mid-stream size changes.
func TestSolveStreamRejectsBadInput(t *testing.T) {
	g := meshGraph(t, 2, 2)
	if _, err := SolveStream(nil, StreamSolveConfig{RoundBudget: solver.Budget{Nodes: 1}}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := SolveStream(nil, StreamSolveConfig{Graph: g}); err == nil {
		t.Fatal("unbounded round budget accepted")
	}

	empty := make(chan measure.Epoch)
	close(empty)
	if _, err := SolveStream(empty, StreamSolveConfig{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, RoundBudget: solver.Budget{Nodes: 10}}); err == nil {
		t.Fatal("empty stream accepted")
	}

	m4, m5 := core.NewCostMatrix(4), core.NewCostMatrix(5)
	rngFill(m4, 71)
	rngFill(m5, 73)
	ch := make(chan measure.Epoch, 2)
	ch <- measure.Epoch{Index: 1, Matrix: m4}
	ch <- measure.Epoch{Index: 2, Matrix: m5, Final: true}
	close(ch)
	if _, err := SolveStream(ch, StreamSolveConfig{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, SolverName: "g1", RoundBudget: solver.Budget{Nodes: 10}}); err == nil {
		t.Fatal("mid-stream size change accepted")
	}
}

// TestSolveStreamConcurrentPublication is the advisor-level race hammer:
// a producer publishes epochs in real time while SolveStream races portfolio
// rounds against them. Run under -race (CI does).
func TestSolveStreamConcurrentPublication(t *testing.T) {
	g := meshGraph(t, 3, 3)
	const n, epochs = 12, 5
	m := core.NewCostMatrix(n)
	rngFill(m, 75)

	ch := make(chan measure.Epoch) // unbuffered: publication overlaps solving
	go func() {
		defer close(ch)
		cur := m
		for e := 1; e <= epochs; e++ {
			next := cur.Clone()
			changed := []int{e % n, (e * 3) % n}
			for _, i := range changed {
				for j := 0; j < n; j++ {
					if i != j {
						next.Set(i, j, cur.At(i, j)*1.01+0.001)
					}
				}
			}
			ch <- measure.Epoch{Index: e, AtMS: float64(e), Final: e == epochs, Matrix: next, ChangedRows: changed}
			cur = next
			time.Sleep(2 * time.Millisecond)
		}
	}()

	out, err := SolveStream(ch, StreamSolveConfig{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		RoundBudget:   solver.Budget{Time: 20 * time.Millisecond},
		Seed:          17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rounds) == 0 || !out.Rounds[len(out.Rounds)-1].Final {
		t.Fatal("stream did not reach the final epoch")
	}
	if err := out.Deployment.Validate(n); err != nil {
		t.Fatal(err)
	}
}

// rngFill populates a matrix with uniform off-diagonal costs.
func rngFill(m *core.CostMatrix, seed int64) {
	s := uint64(seed)
	next := func() float64 {
		// xorshift64*: deterministic filler without pulling in math/rand.
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return float64(s*0x2545F4914F6CDD1D>>11) / float64(1<<53)
	}
	for i := 0; i < m.Size(); i++ {
		for j := 0; j < m.Size(); j++ {
			if i != j {
				m.Set(i, j, 0.2+next())
			}
		}
	}
}

// TestSolveStreamWarmStart: a supplied warm start is adopted as the round-0
// incumbent — the outcome can only improve on it — and an invalid one fails
// the run before any solving.
func TestSolveStreamWarmStart(t *testing.T) {
	g := meshGraph(t, 3, 3)
	m := core.NewCostMatrix(12)
	rngFill(m, 81)

	oneEpoch := func() chan measure.Epoch {
		ch := make(chan measure.Epoch, 1)
		ch <- measure.Epoch{Index: 1, AtMS: 1, Final: true, Matrix: m.Clone()}
		close(ch)
		return ch
	}
	warm := core.Identity(g.NumNodes())
	out, err := SolveStream(oneEpoch(), StreamSolveConfig{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		SolverName:    "g1",
		RoundBudget:   solver.Budget{Nodes: 1},
		WarmStart:     warm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost > out.Problem.Cost(warm) {
		t.Fatalf("outcome cost %g worse than the warm start's %g", out.Cost, out.Problem.Cost(warm))
	}

	for _, bad := range []core.Deployment{
		{0, 1},                                 // wrong length
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 99}, // instance out of range
	} {
		if _, err := SolveStream(oneEpoch(), StreamSolveConfig{
			Graph:         g,
			ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
			SolverName:    "g1",
			RoundBudget:   solver.Budget{Nodes: 1},
			WarmStart:     bad,
		}); err == nil {
			t.Fatalf("warm start %v accepted", bad)
		}
	}
}

// TestSolveStreamDeadline covers the ctx-bounded run: an expired context
// still yields one round of best-so-far advice when an epoch is pending, a
// mid-stream cancellation stops consuming epochs after the round in flight,
// and a context that dies before any epoch arrives is an error.
func TestSolveStreamDeadline(t *testing.T) {
	g := meshGraph(t, 3, 3)
	m := core.NewCostMatrix(12)
	rngFill(m, 83)
	fill := func(n int) chan measure.Epoch {
		ch := make(chan measure.Epoch, n)
		for i := 1; i <= n; i++ {
			ch <- measure.Epoch{Index: i, AtMS: float64(i), Final: i == n, Matrix: m.Clone()}
		}
		close(ch)
		return ch
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := SolveStream(fill(3), StreamSolveConfig{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		RoundBudget:   solver.Budget{Nodes: 50_000},
		Seed:          3,
		Ctx:           expired,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Interrupted {
		t.Fatal("expired-context run not marked Interrupted")
	}
	if len(out.Rounds) != 1 {
		t.Fatalf("expired-context run consumed %d epochs, want 1", len(out.Rounds))
	}
	if err := out.Deployment.Validate(12); err != nil {
		t.Fatalf("interrupted run returned no usable advice: %v", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	out2, err := SolveStream(fill(4), StreamSolveConfig{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		SolverName:    "g2",
		RoundBudget:   solver.Budget{Nodes: 2_000},
		OnRound: func(r Round) {
			if r.Epoch == 2 {
				cancel2()
			}
		},
		Ctx: ctx2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Interrupted || len(out2.Rounds) != 2 {
		t.Fatalf("mid-stream cancel: interrupted=%v rounds=%d, want true/2", out2.Interrupted, len(out2.Rounds))
	}

	starved := make(chan measure.Epoch) // open, never fed
	if _, err := SolveStream(starved, StreamSolveConfig{
		Graph:         g,
		ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink},
		RoundBudget:   solver.Budget{Nodes: 10},
		Ctx:           expired,
	}); err == nil {
		t.Fatal("interrupt before the first epoch produced advice from nothing")
	}
}

// TestStreamingAdvisePinned pins one small streaming run per metric: the
// deployment, the tuned and default costs, and every round's cost and
// winner. Each metric's rounds search the one matrix the run's epochs
// carry for it, so a stream that publishes fewer matrices, or on a
// bounded channel, must not move a single bit here.
func TestStreamingAdvisePinned(t *testing.T) {
	g := meshGraph(t, 3, 3)
	for _, c := range []struct {
		metric Metric
		want   string
	}{
		{MetricMean, "[2 11 10 3 9 7 5 8 4] 0.5396945627871557 0.9409479683209055 | 1 0.5371716555285995 R2L | 2 0.5372623301455581  | 3 0.5389522093470511 R2L | 4 0.5396945627871557 SA"},
		{MetricMeanPlusStd, "[9 5 8 7 4 1 10 2 3] 0.574439796693035 0.9704891901000727 | 1 0.5676729951525552 CP(k=20) | 2 0.5670318338286017 CP(k=20) | 3 0.5748297827337081 R2L | 4 0.574439796693035 "},
		{MetricP95, "[7 9 8 1 4 5 11 2 3] 0.6004553448425233 0.9900000000000001 | 1 0.6004553448425233 CP(k=20) | 2 0.6004553448425233 CP(k=20) | 3 0.6004553448425233  | 4 0.6004553448425233 "},
		{MetricP99, "[4 5 2 1 11 10 8 9 7] 0.6504672444653006 1.0724570570514858 | 1 0.6504672444653006 R2L | 2 0.6504672444653006 R2L | 3 0.6504672444653006 CP(k=20) | 4 0.6504672444653006 "},
	} {
		rep, err := StreamingAdvise(provider(t, 91), StreamingConfig{
			Config: Config{
				Graph:             g,
				ObjectiveSpec:     ObjectiveSpec{Objective: solver.LongestLink, Metric: c.metric},
				OverAllocation:    0.25,
				MeasureDurationMS: 3000,
				SolverBudget:      solver.Budget{Nodes: 40_000},
				Seed:              13,
			},
			EpochMS: 750,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.metric, err)
		}
		got := fmt.Sprintf("%v %v %v", rep.Deployment, rep.TunedCost, rep.DefaultCost)
		for _, r := range rep.Rounds {
			got += fmt.Sprintf(" | %d %v %s", r.Epoch, r.Cost, r.Winner)
		}
		if got != c.want {
			t.Errorf("%s: deployment, costs and rounds\n got %q\nwant %q", c.metric, got, c.want)
		}
	}
}
