package serve

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cloudia/internal/advisor"
	"cloudia/internal/core"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// tailRowsOf derives a full tail-row set from a mean matrix: each off-
// diagonal cell sits a deterministic link-dependent factor above the mean,
// so the percentile matrix orders links differently from the mean one.
func tailRowsOf(m *core.CostMatrix) []wal.RowDelta {
	n := m.Size()
	rows := make([]wal.RowDelta, n)
	for i := 0; i < n; i++ {
		vals := make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				vals[j] = m.At(i, j) * (1.1 + 0.5*float64((i*n+j)%7)/7)
			}
		}
		rows[i] = wal.RowDelta{Row: i, Values: vals}
	}
	return rows
}

// TestDaemonTailRestartBitEqual: a tenant posting tail rows with its epochs
// must get bit-equal p99 advice from a restarted daemon — tail rows ride
// the same WAL records as mean rows, compaction snapshots carry the tail
// matrix, and recovery verifies the tail fingerprint bit-for-bit.
// CompactEvery=2 forces the snapshot path into the replayed history.
func TestDaemonTailRestartBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := testGraph(t, 2, 3)
	const n = 8
	m := testMatrix(rng, n)
	budget := solver.Budget{Nodes: 20_000}
	p99 := AdviseRequest{
		Tenant: "acme", Graph: g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink, Metric: advisor.MetricP99},
		SolverName:    "cp", ClusterK: 4, RoundBudget: budget, Seed: 2,
	}

	drive := func(d *Daemon) core.Fingerprint {
		t.Helper()
		if _, _, err := d.AppendEpoch("acme", n, fullRows(m), &TailUpdate{Pct: 99, Rows: tailRowsOf(m)}); err != nil {
			t.Fatal(err)
		}
		adviseOK(t, d, p99)
		// Two partial epochs: one mean row and one tail row each, exercising
		// the delta fold on both matrices (and a compaction in between).
		meanRow := append([]float64(nil), m.Row(3)...)
		tailRow := append([]float64(nil), tailRowsOf(m)[5].Values...)
		var fp core.Fingerprint
		for e := 0; e < 2; e++ {
			for j := range meanRow {
				if j != 3 {
					meanRow[j] *= 1.2
				}
				if j != 5 {
					tailRow[j] *= 1.3
				}
			}
			var err error
			_, fp, err = d.AppendEpoch("acme", n,
				[]wal.RowDelta{{Row: 3, Values: append([]float64(nil), meanRow...)}},
				&TailUpdate{Pct: 99, Rows: []wal.RowDelta{{Row: 5, Values: append([]float64(nil), tailRow...)}}})
			if err != nil {
				t.Fatal(err)
			}
		}
		return fp
	}

	control := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1, CompactEvery: 2})
	ctrlFP := drive(control)
	want := adviseOK(t, control, p99)
	control.Close()

	dir := t.TempDir()
	crashed := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1, CompactEvery: 2})
	if fp := drive(crashed); fp != ctrlFP {
		t.Fatalf("workload fingerprints diverge before the restart: %016x != %016x", uint64(fp), uint64(ctrlFP))
	}
	crashed.Close()

	reopened := openDaemon(t, DaemonConfig{Dir: dir, Workers: 1, CompactEvery: 2})
	defer reopened.Close()
	got := adviseOK(t, reopened, p99)
	if !reflect.DeepEqual(got.Outcome.Deployment, want.Outcome.Deployment) || got.Outcome.Cost != want.Outcome.Cost {
		t.Fatalf("post-restart p99 advice diverged: %v (%g) != %v (%g)",
			got.Outcome.Deployment, got.Outcome.Cost, want.Outcome.Deployment, want.Outcome.Cost)
	}
}

// TestDaemonTailValidation covers the tail-specific input contract: the
// percentile range, the one-percentile-per-tenant rule, tail row checks,
// and percentile advise against missing or mismatched tail state.
func TestDaemonTailValidation(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	rng := rand.New(rand.NewSource(89))
	const n = 6
	m := testMatrix(rng, n)
	g := testGraph(t, 2, 3)
	budget := solver.Budget{Nodes: 5_000}

	appendTail := func(tenant string, tail *TailUpdate) error {
		_, _, err := d.AppendEpoch(tenant, n, fullRows(m), tail)
		return err
	}
	expectErr := func(name string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want mention of %q", name, err, want)
		}
	}

	expectErr("pct 0", appendTail("a", &TailUpdate{Pct: 0, Rows: tailRowsOf(m)}), "(0,100)")
	expectErr("pct 100", appendTail("a", &TailUpdate{Pct: 100, Rows: tailRowsOf(m)}), "(0,100)")
	expectErr("bad tail row", appendTail("a", &TailUpdate{
		Pct: 99, Rows: []wal.RowDelta{{Row: n, Values: make([]float64, n)}},
	}), "tail")

	// A mean-only tenant cannot be advised on a percentile metric.
	if err := appendTail("meanonly", nil); err != nil {
		t.Fatal(err)
	}
	_, err := d.Advise(AdviseRequest{
		Tenant: "meanonly", Graph: g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink, Metric: advisor.MetricP99},
		SolverName:    "cp", ClusterK: 4, RoundBudget: budget,
	})
	expectErr("percentile advise without tails", err, "has no percentile matrix")

	// One tail percentile per tenant, and advice must ask for that one.
	if err := appendTail("tailed", &TailUpdate{Pct: 99, Rows: tailRowsOf(m)}); err != nil {
		t.Fatal(err)
	}
	_, _, err = d.AppendEpoch("tailed", n,
		[]wal.RowDelta{{Row: 0, Values: append([]float64(nil), m.Row(0)...)}},
		&TailUpdate{Pct: 95, Rows: []wal.RowDelta{{Row: 0, Values: tailRowsOf(m)[0].Values}}})
	expectErr("pct change", err, "one tail percentile per tenant")
	_, err = d.Advise(AdviseRequest{
		Tenant: "tailed", Graph: g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink, Metric: advisor.MetricP95},
		SolverName:    "cp", ClusterK: 4, RoundBudget: budget,
	})
	expectErr("pct mismatch advise", err, "wants p95")

	// The happy path still holds after the rejections: p99 advice works.
	adviseOK(t, d, AdviseRequest{
		Tenant: "tailed", Graph: g,
		ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.LongestLink, Metric: advisor.MetricP99},
		SolverName:    "cp", ClusterK: 4, RoundBudget: budget,
	})
}
