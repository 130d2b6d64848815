package solver

import (
	"math/rand"
	"reflect"
	"testing"

	"cloudia/internal/core"
)

func shareTestProblem(t *testing.T, seed int64) (*Problem, *Problem) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := core.NewGraph(8)
	for v := 0; v+1 < 8; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	m := core.NewCostMatrix(12)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if i != j {
				m.Set(i, j, 0.2+rng.Float64())
			}
		}
	}
	pa, err := NewProblem(g, m, LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	// A second problem over a distinct but bitwise-equal matrix, as two
	// tenants with identical measurements would hold.
	pb, err := NewProblem(g, m.Clone(), LongestLink)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

// A donor exports its matrix set with Matrix() and an adopter installs it
// with ShareMatrix: the adopter must serve the exact rounded set the donor
// built, it must be what the adopter would have built itself, and a Prep
// that already read its own set must refuse adoption.
func TestExportAdoptRounded(t *testing.T) {
	pa, pb := shareTestProblem(t, 1)
	setA, err := pa.Prep().RoundedSet(4)
	if err != nil {
		t.Fatal(err)
	}
	if !pb.Prep().ShareMatrix(pa.Prep().Matrix()) {
		t.Fatal("adoption into a Prep that read nothing failed")
	}
	setB, err := pb.Prep().RoundedSet(4)
	if err != nil {
		t.Fatal(err)
	}
	if setB != setA {
		t.Fatal("adopted Prep did not serve the donor's rounded set")
	}
	// The float64 views are built per call, so an adopter's views are its
	// own, equal in value to the donor's.
	ma, pairsA, err := pa.Prep().Rounded(4)
	if err != nil {
		t.Fatal(err)
	}
	mb, pairsB, err := pb.Prep().Rounded(4)
	if err != nil {
		t.Fatal(err)
	}
	if mb == ma || &pairsB[0] == &pairsA[0] {
		t.Fatal("the float64 views of a shared set are shared")
	}
	if !reflect.DeepEqual(pairsB, pairsA) {
		t.Fatal("views of one shared set differ between Preps")
	}

	// An independently built set over equal content must be bit-identical
	// to the shared one (determinism of the fit).
	pc, _ := shareTestProblem(t, 1)
	setC, err := pc.Prep().RoundedSet(4)
	if err != nil {
		t.Fatal(err)
	}
	mc, pairsC, _ := pc.Prep().Rounded(4)
	for i := 0; i < mc.Size(); i++ {
		if !reflect.DeepEqual(mc.Row(i), ma.Row(i)) {
			t.Fatalf("fresh fit row %d differs from the shared set's", i)
		}
	}
	if !reflect.DeepEqual(pairsC, pairsA) {
		t.Fatal("fresh pair list over equal content differs from the shared one")
	}
	// pc read its own set: adoption is refused and its set stays.
	if pc.Prep().ShareMatrix(pa.Prep().Matrix()) {
		t.Fatal("adoption replaced a set the Prep had already read")
	}
	if set, _ := pc.Prep().RoundedSet(4); set != setC {
		t.Fatal("refused adoption changed the Prep's rounded set")
	}
}

// The cheapest rows are not part of the matrix set: each call builds them
// afresh from the problem's matrix, equal in value over equal content, and
// reading them neither builds nor pins a set, so a Prep that read rows can
// still adopt a shared one.
func TestExportAdoptCheapestRows(t *testing.T) {
	pa, pb := shareTestProblem(t, 3)
	rowsA := pa.Prep().CheapestRows()
	if again := pa.Prep().CheapestRows(); &again[0][0] == &rowsA[0][0] || !reflect.DeepEqual(again, rowsA) {
		t.Fatal("a second CheapestRows call did not build equal, fresh rows")
	}
	if !pa.Prep().ShareMatrix(NewMatrixPrep(pa.Costs)) {
		t.Fatal("reading rows pinned the Prep's matrix set")
	}
	if !pb.Prep().ShareMatrix(pa.Prep().Matrix()) {
		t.Fatal("adoption into a Prep that read nothing failed")
	}
	rowsB := pb.Prep().CheapestRows()
	if &rowsA[0][0] == &rowsB[0][0] || !reflect.DeepEqual(rowsB, rowsA) {
		t.Fatal("an adopter's rows are not its own equal copy")
	}
	if b := pa.Prep().Matrix().Bytes(); b != 0 {
		t.Fatalf("rows were counted in the shared set: %d bytes", b)
	}
	if pb.Prep().ShareMatrix(NewMatrixPrep(pb.Costs)) {
		t.Fatal("a second set replaced the adopted one")
	}
}

// SharedReads counts each cluster count's set once: a miss for the Prep
// whose read ran the build, a hit for a Prep reading it from a shared set.
// The per-call builds (rows, off-diagonal values) count nothing, and the
// float64 views count as a read of their set.
func TestSharedReadsCountsBuilds(t *testing.T) {
	pa, pb := shareTestProblem(t, 5)
	pb.Prep().ShareMatrix(pa.Prep().Matrix())
	for i := 0; i < 2; i++ {
		pa.Prep().RoundedSet(3)
		pa.Prep().Rounded(3)
		pa.Prep().CheapestRows()
		pa.Prep().OffDiagonal()
	}
	pb.Prep().RoundedSet(3)
	pb.Prep().CheapestRows()
	pb.Prep().Rounded(5)
	if h, m := pa.Prep().SharedReads(); h != 0 || m != 1 {
		t.Fatalf("builder hits/misses = %d/%d, want 0/1", h, m)
	}
	if h, m := pb.Prep().SharedReads(); h != 1 || m != 1 {
		t.Fatalf("sharer hits/misses = %d/%d, want 1/1", h, m)
	}
}

// The shared set holds only rounded sets: however many Preps sharing it
// read the float64 views, the rows and the off-diagonal values, its bytes
// are the sum of its rounded sets' bytes.
func TestMatrixPrepHoldsOnlyRoundedSets(t *testing.T) {
	pa, pb := shareTestProblem(t, 7)
	pc, _ := shareTestProblem(t, 7)
	set := pa.Prep().Matrix()
	for _, p := range []*Problem{pb, pc} {
		if !p.Prep().ShareMatrix(set) {
			t.Fatal("adoption into a Prep that read nothing failed")
		}
	}
	for _, p := range []*Problem{pa, pb, pc} {
		for _, k := range []int{0, 4, 6} {
			if _, _, err := p.Prep().Rounded(k); err != nil {
				t.Fatal(err)
			}
		}
		p.Prep().CheapestRows()
		p.Prep().OffDiagonal()
	}
	var want int64
	for _, k := range []int{0, 4, 6} {
		r, err := set.RoundedSet(k)
		if err != nil {
			t.Fatal(err)
		}
		want += r.Bytes()
	}
	if got := set.Bytes(); got != want {
		t.Fatalf("MatrixPrep.Bytes = %d, want the rounded sets' %d", got, want)
	}
}
