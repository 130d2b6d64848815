package advisor

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
)

// Failure-injection tests: the advisor must fail cleanly, not panic or leak
// instances, when the environment misbehaves.

func tinyProvider(t *testing.T) *cloud.Provider {
	t.Helper()
	prof := topology.EC2Profile()
	prof.Racks = 2
	prof.HostsPerRack = 2
	prof.RacksPerAgg = 1
	prof.SlotsPerHost = 2 // 8 slots total
	dc, err := topology.New(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cloud.NewProvider(dc, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAdviseCapacityExhausted(t *testing.T) {
	p := tinyProvider(t)
	g, err := core.Mesh2D(4, 4) // 16 nodes > 8 slots
	if err != nil {
		t.Fatal(err)
	}
	_, err = Advise(p, Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, Seed: 3})
	if err == nil {
		t.Fatal("over-capacity advise succeeded")
	}
	if !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// Nothing may leak: a failed allocation leaves no live instances.
	if p.LiveInstances() != 0 {
		t.Fatalf("%d instances leaked after failed advise", p.LiveInstances())
	}
}

func TestAdviseOverAllocationPushesOverCapacity(t *testing.T) {
	p := tinyProvider(t)
	g, err := core.Mesh2D(2, 4) // 8 nodes == capacity; 10% extra won't fit
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(p, Config{
		Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, OverAllocation: 0.25, Seed: 5,
	}); err == nil {
		t.Fatal("over-capacity over-allocation succeeded")
	}
	if p.LiveInstances() != 0 {
		t.Fatalf("%d instances leaked", p.LiveInstances())
	}
}

func TestAdviseExactCapacityWorks(t *testing.T) {
	p := tinyProvider(t)
	g, err := core.Mesh2D(2, 4) // exactly 8 nodes on 8 slots
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Advise(p, Config{
		Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}, Seed: 7,
		SolverBudget: solver.Budget{Nodes: 50_000},
	})
	if err != nil {
		t.Fatalf("exact-capacity advise failed: %v", err)
	}
	if len(rep.TerminatedIDs) != 0 {
		t.Fatal("terminated instances despite zero over-allocation")
	}
	if p.LiveInstances() != 8 {
		t.Fatalf("live instances %d, want 8", p.LiveInstances())
	}
}

func TestRedeployCapacityExhausted(t *testing.T) {
	p := tinyProvider(t)
	g, err := core.Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRedeploy(p, RedeployConfig{
		Graph: g, Objective: solver.LongestLink, PeriodHours: 1, Periods: 1,
	}); err == nil {
		t.Fatal("over-capacity redeploy succeeded")
	}
	if p.LiveInstances() != 0 {
		t.Fatalf("%d instances leaked", p.LiveInstances())
	}
}

func TestAdviseSingleNodeGraphRejected(t *testing.T) {
	p := tinyProvider(t)
	g := core.NewGraph(1)
	if _, err := Advise(p, Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestLink}}); err == nil {
		t.Fatal("single-node graph accepted")
	}
}

func TestAdviseCyclicGraphForLongestPathRejected(t *testing.T) {
	p := tinyProvider(t)
	g, err := core.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Advise(p, Config{Graph: g, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestPath}, Seed: 9})
	if err == nil {
		t.Fatal("cyclic graph accepted for longest-path")
	}
	// The failure happens after allocation; the advisor must clean up.
	if p.LiveInstances() != 0 {
		t.Fatalf("%d instances leaked after post-allocation failure", p.LiveInstances())
	}
}

// A search that fails while the measurement still has most of its epochs
// to publish stops the measurement: StreamingAdvise and RunRedeploy return
// the error with every instance released, and no measurement goroutine is
// left behind, blocked on an epoch nobody reads.
func TestFailedSearchStopsMeasurement(t *testing.T) {
	tree, err := core.TwoLevelAggregation(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := tinyProvider(t)
	before := runtime.NumGoroutine()
	// CP refuses longest-path problems, so the first round fails.
	_, err = StreamingAdvise(p, StreamingConfig{
		Config: Config{Graph: tree, ObjectiveSpec: ObjectiveSpec{Objective: solver.LongestPath},
			SolverName: "cp", MeasureDurationMS: 1e6, Seed: 3},
		EpochMS: 100,
	})
	if err == nil || !strings.Contains(err.Error(), "unsupported objective") {
		t.Fatalf("StreamingAdvise error = %v, want CP's unsupported objective", err)
	}
	if _, err := RunRedeploy(p, RedeployConfig{
		Graph: tree, Objective: solver.LongestPath, SolverName: "cp",
		MeasureDurationMS: 200, PeriodHours: 1, Periods: 1,
	}); err == nil || !strings.Contains(err.Error(), "unsupported objective") {
		t.Fatalf("RunRedeploy error = %v, want CP's unsupported objective", err)
	}
	if p.LiveInstances() != 0 {
		t.Fatalf("%d instances leaked after failed searches", p.LiveInstances())
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed searches, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
