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
// without -race: 1.95 MB, of which the rounded set holds about 0.09 MB
// (1 byte per instance pair) and CP's per-solve level list 0.36 MB. The
// bound adds a 1 MB margin. Building the set's float64 views on the
// served path (a rounded matrix and a CostPair per pair, 2.15 MB at this
// size) would break it, as would the old CP root filter's per-call
// profile rows (3.85 MB in all) or the old 24-byte build (7.71 MB).
const (
	allocGuardInstances = 300
	allocGuardNodes     = 20_000
	adviseAllocBound    = 2_950_000
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
