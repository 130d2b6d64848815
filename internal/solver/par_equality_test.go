package solver

import (
	"reflect"
	"runtime"
	"testing"

	"cloudia/internal/par"
)

// prepArtifacts computes every Prep artifact kind from a fresh problem built
// with the given seeds, at the current worker count. Fresh problems per call
// keep Prep memoization from hiding the rebuild.
type prepArtifacts struct {
	rounded0, rounded8 [][]float64
	pairs0, pairs8     []float64
	rows               [][]int32
	off                []float64
}

func collectPrepArtifacts(t *testing.T) prepArtifacts {
	t.Helper()
	p := prepProblem(t, 14, 26, 41)
	prep := p.Prep()
	var a prepArtifacts

	dump := func(m interface {
		Size() int
		Row(int) []float64
	}) [][]float64 {
		out := make([][]float64, m.Size())
		for i := range out {
			out[i] = append([]float64(nil), m.Row(i)...)
		}
		return out
	}
	m0, pairs0, err := prep.Rounded(0)
	if err != nil {
		t.Fatal(err)
	}
	a.rounded0 = dump(m0)
	for _, pr := range pairs0 {
		a.pairs0 = append(a.pairs0, float64(pr.From), float64(pr.To), pr.Cost)
	}
	m8, pairs8, err := prep.Rounded(8)
	if err != nil {
		t.Fatal(err)
	}
	a.rounded8 = dump(m8)
	for _, pr := range pairs8 {
		a.pairs8 = append(a.pairs8, float64(pr.From), float64(pr.To), pr.Cost)
	}
	a.rows = prep.CheapestRows()
	a.off = prep.OffDiagonal()
	return a
}

// TestPrepArtifactsBitEqualAcrossWorkers pins every artifact kind the Prep
// layer builds — rounded matrices, sorted pair lists, cheapest rows and
// off-diagonal extraction — bit-identical across worker counts.
func TestPrepArtifactsBitEqualAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	want := collectPrepArtifacts(t)
	counts := []int{2, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) < 2 {
		counts = append(counts, 8)
	}
	for _, w := range counts {
		par.SetWorkers(w)
		got := collectPrepArtifacts(t)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Prep artifacts diverge from sequential build", w)
		}
	}
}
