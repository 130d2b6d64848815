package bench

import (
	"strings"
	"testing"
)

// All figures run in Quick mode as part of the ordinary test suite, so a
// regression anywhere in the pipeline (topology -> cloud -> measure ->
// solver -> workload) is caught by `go test ./...` without waiting for the
// full-scale bench run.

func TestAllFiguresRunQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fig, err := Run(id, Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if fig.ID != id {
				t.Fatalf("figure id %q != requested %q", fig.ID, id)
			}
			if len(fig.Series) == 0 {
				t.Fatalf("%s produced no series", id)
			}
			for _, s := range fig.Series {
				if len(s.X) != len(s.Y) {
					t.Fatalf("%s series %q: len(X)=%d len(Y)=%d", id, s.Name, len(s.X), len(s.Y))
				}
			}
			out := fig.String()
			if !strings.Contains(out, fig.Title) {
				t.Fatalf("%s String() missing title", id)
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"fig01", "fig02", "fig04", "fig05", "fig06", "fig07", "fig08",
		"fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
		"ablation-clusterk", "ablation-contention", "ablation-degreefilter",
		"ablation-sa",
		"extension-redeploy", "extension-overlap", "extension-weighted",
		"extension-costmodel", "extension-bandwidth",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestMeshDims(t *testing.T) {
	// meshDims returns the most square rows x cols with rows*cols <= n.
	for _, n := range []int{1, 4, 18, 27, 45, 90, 100} {
		r, c := meshDims(n)
		if r*c > n {
			t.Errorf("meshDims(%d) overflows: %d*%d", n, r, c)
		}
		if r > c {
			t.Errorf("meshDims(%d) = (%d,%d): rows exceed cols", n, r, c)
		}
		// Most-square: (r+1)^2 must exceed n.
		if (r+1)*(r+1) <= n {
			t.Errorf("meshDims(%d) = (%d,%d) not most-square", n, r, c)
		}
	}
	if r, c := meshDims(90); r != 9 || c != 10 {
		t.Errorf("meshDims(90) = (%d,%d), want (9,10)", r, c)
	}
}
