// Package cloud simulates a public cloud provider over a topology.Datacenter:
// tenants allocate and terminate VM instances, and the provider places them
// on physical hosts without exposing any placement or topology information —
// exactly the API surface the paper's tenant faces. Placement is
// deliberately non-contiguous: the datacenter is pre-fragmented by other
// tenants, and new instances are scattered over whatever slots are free,
// producing the heterogeneous pairwise latencies of Fig. 1.
package cloud

import (
	"fmt"
	"math/rand"

	"cloudia/internal/core"
	"cloudia/internal/topology"
)

// Instance is one allocated VM. The tenant sees the ID and internal IP; Host
// is the hidden physical placement, exposed only to the simulation layers
// (and to Appendix-2 style analyses that compute the ground truth).
type Instance struct {
	ID   string
	Host int
	IP   [4]byte
}

// Provider is a simulated cloud provider. It is not safe for concurrent use.
type Provider struct {
	dc    *topology.Datacenter
	rng   *rand.Rand
	used  []int // used VM slots per host
	live  map[string]Instance
	next  int
	slots int
}

// NewProvider creates a provider over dc. occupancy in [0,1) pre-fills that
// fraction of all VM slots with other tenants' instances, rack by rack with
// random skew, so a subsequent allocation fragments across the datacenter.
func NewProvider(dc *topology.Datacenter, occupancy float64, seed int64) (*Provider, error) {
	if occupancy < 0 || occupancy >= 1 {
		return nil, fmt.Errorf("cloud: occupancy %g out of [0,1)", occupancy)
	}
	p := &Provider{
		dc:    dc,
		rng:   rand.New(rand.NewSource(seed)),
		used:  make([]int, dc.NumHosts()),
		live:  make(map[string]Instance),
		slots: dc.Profile().SlotsPerHost,
	}
	// Pre-fragment: every host gets a binomially distributed number of
	// foreign VMs, with per-rack skew so some racks are nearly full and
	// others nearly empty (hot and cold zones).
	for h := range p.used {
		rackSkew := 0.5 + p.rng.Float64() // in [0.5, 1.5)
		prob := occupancy * rackSkew
		if prob > 0.95 {
			prob = 0.95
		}
		for s := 0; s < p.slots; s++ {
			if p.rng.Float64() < prob {
				p.used[h]++
			}
		}
	}
	return p, nil
}

// Datacenter exposes the underlying datacenter for simulation layers.
func (p *Provider) Datacenter() *topology.Datacenter { return p.dc }

// FreeSlots reports the number of free VM slots datacenter-wide.
func (p *Provider) FreeSlots() int {
	free := 0
	for _, u := range p.used {
		free += p.slots - u
	}
	return free
}

// LiveInstances reports the number of instances currently allocated by this
// provider's tenants.
func (p *Provider) LiveInstances() int { return len(p.live) }

// RunInstances allocates count instances, scattering them over free slots.
// The returned order is the provider's allocation order — the paper's
// "default deployment" uses it as-is. Placement policy: repeatedly pick a
// random host weighted by free slots; the tenant has no influence, matching
// ec2-run-instances semantics.
func (p *Provider) RunInstances(count int) ([]Instance, error) {
	if count <= 0 {
		return nil, fmt.Errorf("cloud: invalid instance count %d", count)
	}
	if count > p.FreeSlots() {
		return nil, fmt.Errorf("cloud: insufficient capacity: want %d, free %d", count, p.FreeSlots())
	}
	out := make([]Instance, 0, count)
	for len(out) < count {
		h := p.pickHost()
		p.used[h]++
		inst := Instance{
			ID:   fmt.Sprintf("i-%08x", p.next),
			Host: h,
			IP:   p.dc.IP(h),
		}
		p.next++
		p.live[inst.ID] = inst
		out = append(out, inst)
	}
	return out, nil
}

// pickHost selects a host with free capacity, weighted by free slots.
func (p *Provider) pickHost() int {
	free := p.FreeSlots()
	k := p.rng.Intn(free)
	for h, u := range p.used {
		k -= p.slots - u
		if k < 0 {
			return h
		}
	}
	panic("cloud: pickHost ran past capacity") // unreachable: k < free
}

// TerminateInstances releases the given instances. Unknown IDs are an error;
// partial termination is applied for the prefix preceding the error.
func (p *Provider) TerminateInstances(ids []string) error {
	for _, id := range ids {
		inst, ok := p.live[id]
		if !ok {
			return fmt.Errorf("cloud: unknown instance %q", id)
		}
		delete(p.live, id)
		p.used[inst.Host]--
	}
	return nil
}

// MeanRTTMatrix returns the ground-truth mean RTT matrix over the given
// instances at time 0: entry (i, j) is the stable mean RTT between
// instances[i] and instances[j]. This is what an oracle (or an infinitely
// long measurement) would report; the measure package estimates it.
func MeanRTTMatrix(dc *topology.Datacenter, instances []Instance) *core.CostMatrix {
	n := len(instances)
	m := core.NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, dc.MeanRTT(instances[i].Host, instances[j].Host))
			}
		}
	}
	return m
}

// InverseBandwidthMatrix returns a cost matrix whose entry (i, j) is
// 1000 / bandwidth(i, j) in MB/s — so minimizing the longest-link deployment
// cost maximizes the bottleneck bandwidth across communication edges. This
// is the bandwidth criterion the paper names as future work (Sect. 8).
func InverseBandwidthMatrix(dc *topology.Datacenter, instances []Instance) *core.CostMatrix {
	n := len(instances)
	m := core.NewCostMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 1000/dc.BandwidthMBps(instances[i].Host, instances[j].Host))
			}
		}
	}
	return m
}

// LatencyFunc adapts the datacenter's one-way sampler to a set of instances,
// for use as a netsim.LatencyFunc. startHours anchors the virtual clock to
// an absolute datacenter time (virtual ms are added on top).
func LatencyFunc(dc *topology.Datacenter, instances []Instance, startHours float64) func(src, dst int, nowMS float64, rng *rand.Rand) float64 {
	hosts := make([]int, len(instances))
	for i, inst := range instances {
		hosts[i] = inst.Host
	}
	return func(src, dst int, nowMS float64, rng *rand.Rand) float64 {
		hours := startHours + nowMS/3.6e6
		return dc.SampleOneWay(hosts[src], hosts[dst], hours, rng)
	}
}

// DistinctRacks reports how many racks the instances span, a fragmentation
// diagnostic used by tests.
func DistinctRacks(dc *topology.Datacenter, instances []Instance) int {
	racks := make(map[int]struct{})
	for _, inst := range instances {
		racks[dc.Rack(inst.Host)] = struct{}{}
	}
	return len(racks)
}
