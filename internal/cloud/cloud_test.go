package cloud

import (
	"math/rand"
	"testing"

	"cloudia/internal/topology"
)

func newProvider(t *testing.T, occupancy float64, seed int64) *Provider {
	t.Helper()
	dc, err := topology.New(topology.EC2Profile(), seed)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	p, err := NewProvider(dc, occupancy, seed+1)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	return p
}

func TestNewProviderRejectsOccupancy(t *testing.T) {
	dc, err := topology.New(topology.EC2Profile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProvider(dc, -0.1, 1); err == nil {
		t.Fatal("negative occupancy accepted")
	}
	if _, err := NewProvider(dc, 1.0, 1); err == nil {
		t.Fatal("full occupancy accepted")
	}
}

func TestRunInstancesBasics(t *testing.T) {
	p := newProvider(t, 0.6, 7)
	insts, err := p.RunInstances(100)
	if err != nil {
		t.Fatalf("RunInstances: %v", err)
	}
	if len(insts) != 100 {
		t.Fatalf("got %d instances", len(insts))
	}
	if p.LiveInstances() != 100 {
		t.Fatalf("LiveInstances = %d", p.LiveInstances())
	}
	ids := make(map[string]bool)
	for _, in := range insts {
		if ids[in.ID] {
			t.Fatalf("duplicate instance ID %s", in.ID)
		}
		ids[in.ID] = true
		if in.Host < 0 || in.Host >= p.Datacenter().NumHosts() {
			t.Fatalf("host %d out of range", in.Host)
		}
		if in.IP != p.Datacenter().IP(in.Host) {
			t.Fatalf("instance IP %v != host IP", in.IP)
		}
	}
}

func TestRunInstancesErrors(t *testing.T) {
	p := newProvider(t, 0.0, 1)
	if _, err := p.RunInstances(0); err == nil {
		t.Fatal("count 0 accepted")
	}
	if _, err := p.RunInstances(p.FreeSlots() + 1); err == nil {
		t.Fatal("over-capacity allocation accepted")
	}
}

func TestAllocationFragmentsAcrossRacks(t *testing.T) {
	p := newProvider(t, 0.6, 3)
	insts, err := p.RunInstances(100)
	if err != nil {
		t.Fatal(err)
	}
	racks := DistinctRacks(p.Datacenter(), insts)
	// 100 instances on a 64-rack datacenter should span many racks; a
	// contiguous allocator would use ~2 racks (80 slots each).
	if racks < 20 {
		t.Fatalf("allocation spans only %d racks; not fragmented", racks)
	}
}

func TestSlotCapacityRespected(t *testing.T) {
	p := newProvider(t, 0.5, 9)
	insts, err := p.RunInstances(300)
	if err != nil {
		t.Fatal(err)
	}
	perHost := make(map[int]int)
	for _, in := range insts {
		perHost[in.Host]++
	}
	slots := p.Datacenter().Profile().SlotsPerHost
	for h, n := range perHost {
		if n > slots {
			t.Fatalf("host %d holds %d instances, slots %d", h, n, slots)
		}
	}
}

func TestTerminateInstances(t *testing.T) {
	p := newProvider(t, 0.3, 5)
	before := p.FreeSlots()
	insts, err := p.RunInstances(10)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreeSlots() != before-10 {
		t.Fatalf("free slots %d, want %d", p.FreeSlots(), before-10)
	}
	ids := []string{insts[0].ID, insts[5].ID}
	if err := p.TerminateInstances(ids); err != nil {
		t.Fatalf("TerminateInstances: %v", err)
	}
	if p.LiveInstances() != 8 {
		t.Fatalf("LiveInstances = %d, want 8", p.LiveInstances())
	}
	if p.FreeSlots() != before-8 {
		t.Fatalf("free slots %d after terminate, want %d", p.FreeSlots(), before-8)
	}
	if err := p.TerminateInstances([]string{"i-nonexistent"}); err == nil {
		t.Fatal("unknown ID accepted")
	}
	// Double-terminate is an error.
	if err := p.TerminateInstances([]string{insts[0].ID}); err == nil {
		t.Fatal("double termination accepted")
	}
}

func TestMeanRTTMatrixMatchesTopology(t *testing.T) {
	p := newProvider(t, 0.4, 11)
	insts, err := p.RunInstances(20)
	if err != nil {
		t.Fatal(err)
	}
	m := MeanRTTMatrix(p.Datacenter(), insts)
	if err := m.Validate(); err != nil {
		t.Fatalf("matrix invalid: %v", err)
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if i == j {
				continue
			}
			want := p.Datacenter().MeanRTT(insts[i].Host, insts[j].Host)
			if m.At(i, j) != want {
				t.Fatalf("matrix (%d,%d) = %g, want %g", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestLatencyFuncPositive(t *testing.T) {
	p := newProvider(t, 0.4, 13)
	insts, err := p.RunInstances(5)
	if err != nil {
		t.Fatal(err)
	}
	lf := LatencyFunc(p.Datacenter(), insts, 0)
	r := randSource()
	for k := 0; k < 100; k++ {
		v := lf(k%5, (k+1)%5, float64(k), r)
		if v <= 0 {
			t.Fatalf("latency sample %g not positive", v)
		}
	}
}

func TestDeterministicAllocation(t *testing.T) {
	a := newProvider(t, 0.5, 21)
	b := newProvider(t, 0.5, 21)
	ia, err := a.RunInstances(30)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.RunInstances(30)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ia {
		if ia[i].Host != ib[i].Host || ia[i].ID != ib[i].ID {
			t.Fatalf("allocation not deterministic at %d: %+v vs %+v", i, ia[i], ib[i])
		}
	}
}

// randSource returns a deterministic rand for latency sampling in tests.
func randSource() *rand.Rand { return rand.New(rand.NewSource(99)) }
