package serve

import (
	"math/rand"
	"runtime"
	"testing"

	"cloudia/internal/advisor"
	"cloudia/internal/solver"
)

// adviseAllocBound caps what one portfolio advise on a fresh fingerprint
// (allocGuardInstances instances, a 4x4 mesh, k = 20, allocGuardNodes
// search nodes) may allocate. Measured on a 2-core x86-64 box, with and
// without -race: 3.85 MB, of which the rounded set holds about 0.45 MB
// (5 bytes per instance pair). The bound adds a 1 MB margin. Building the
// set's float64 views on the served path (a rounded matrix and a CostPair
// per pair, 2.15 MB at this size) would break it, as the old 24-byte build
// did: 7.71 MB.
const (
	allocGuardInstances = 300
	allocGuardNodes     = 20_000
	adviseAllocBound    = 4_850_000
)

// TestAdviseAllocationBound keeps the served path on the compact rounded
// set: one Daemon.Advise over a fingerprint the cache has not seen must
// allocate no more than adviseAllocBound.
func TestAdviseAllocationBound(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	rng := rand.New(rand.NewSource(61))
	postMatrix(t, d, "alloc", testMatrix(rng, allocGuardInstances))
	req := AdviseRequest{
		Tenant: "alloc", Graph: testGraph(t, 4, 4), ClusterK: 20,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink},
		RoundBudget:   solver.Budget{Nodes: allocGuardNodes}, Seed: 5,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := adviseOK(t, d, req)
	runtime.ReadMemStats(&after)
	if res.CacheHits != 0 {
		t.Fatalf("advise on a fresh fingerprint reported %d cache hits", res.CacheHits)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > adviseAllocBound {
		t.Fatalf("one advise allocated %d bytes, bound %d", got, adviseAllocBound)
	} else {
		t.Logf("one advise allocated %d bytes (bound %d)", got, adviseAllocBound)
	}
}
