// Package netsim is a discrete-event network simulator over which ClouDiA's
// measurement schemes and the paper's application workloads run. It models a
// set of endpoints (cloud instances) exchanging messages whose end-to-end
// timing is composed of
//
//   - NIC serialization: each endpoint transmits one message at a time and
//     receives one message at a time; concurrent traffic queues,
//   - propagation: a one-way latency sample drawn from the latency function
//     (typically topology.Datacenter.SampleOneWay), and
//   - receive-side processing time.
//
// The serialization and processing terms are what make concurrent probes
// interfere, which is exactly the effect that separates the paper's
// uncoordinated measurement scheme from the staged and token-passing schemes
// (Fig. 4). The clock is virtual: experiments that span simulated minutes
// finish in real milliseconds.
package netsim

import (
	"fmt"
	"math/rand"
)

// Time is virtual time in milliseconds since simulation start.
type Time = float64

// LatencyFunc returns a one-way propagation latency sample in milliseconds
// for a message from endpoint src to endpoint dst at virtual time now.
type LatencyFunc func(src, dst int, now Time, rng *rand.Rand) float64

// Config tunes the NIC model.
type Config struct {
	// BandwidthMBps is the per-endpoint NIC bandwidth in megabytes per
	// second, applied independently to transmit and receive. Zero selects
	// the default of 120 MB/s (~1 Gb/s).
	BandwidthMBps float64
	// ProcessingMS is the fixed receive-side processing time per message.
	// Zero selects the default of 0.004 ms.
	ProcessingMS float64
}

const (
	defaultBandwidthMBps = 120
	defaultProcessingMS  = 0.004
)

// Sim is a discrete-event simulator over n endpoints. It is not safe for
// concurrent use; all callbacks run on the caller's goroutine inside Run.
type Sim struct {
	now   Time
	queue eventQueue
	seq   int64
	nics  []nic
	lat   LatencyFunc
	rng   *rand.Rand
	cfg   Config
	nsent int64
}

type nic struct {
	txFreeAt Time
	rxFreeAt Time
}

type event struct {
	at  Time
	seq int64 // FIFO tie-break for simultaneous events
	fn  func()
}

// eventQueue is a binary min-heap of events in (at, seq) order. seq is
// unique, so the order is total and the pop sequence is fixed by the
// pushes alone.
type eventQueue []event

// before reports whether a runs before b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds e to the heap.
func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (q *eventQueue) pop() event {
	h := *q
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the callback reference
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return e
}

// New returns a simulator over n endpoints using lat for propagation delays
// and a deterministic RNG seeded with seed.
func New(n int, lat LatencyFunc, seed int64, cfg Config) (*Sim, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netsim: invalid endpoint count %d", n)
	}
	if lat == nil {
		return nil, fmt.Errorf("netsim: nil latency function")
	}
	if cfg.BandwidthMBps == 0 {
		cfg.BandwidthMBps = defaultBandwidthMBps
	}
	if cfg.ProcessingMS == 0 {
		cfg.ProcessingMS = defaultProcessingMS
	}
	if cfg.BandwidthMBps < 0 || cfg.ProcessingMS < 0 {
		return nil, fmt.Errorf("netsim: negative config")
	}
	return &Sim{
		nics: make([]nic, n),
		lat:  lat,
		rng:  rand.New(rand.NewSource(seed)),
		cfg:  cfg,
	}, nil
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// MessagesSent reports the total number of messages sent so far.
func (s *Sim) MessagesSent() int64 { return s.nsent }

// At schedules fn to run at virtual time t. Scheduling in the past runs the
// event at the current time (events never travel backwards).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d milliseconds from now.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// serializeMS converts a message size to NIC occupancy time.
func (s *Sim) serializeMS(sizeBytes int) Time {
	return float64(sizeBytes) / (s.cfg.BandwidthMBps * 1000) // bytes / (bytes per ms)
}

// Send transmits sizeBytes from src to dst. delivered, if non-nil, runs at
// the virtual time the last byte has been received and processed at dst.
// Timing: the message waits for src's transmit NIC, occupies it for the
// serialization time, propagates with a sampled one-way latency, then waits
// for dst's receive NIC, occupying it for serialization plus processing.
func (s *Sim) Send(src, dst int, sizeBytes int, delivered func(at Time)) {
	if src < 0 || src >= len(s.nics) || dst < 0 || dst >= len(s.nics) {
		panic(fmt.Sprintf("netsim: endpoint out of range: %d -> %d", src, dst))
	}
	if sizeBytes < 0 {
		panic("netsim: negative message size")
	}
	s.nsent++
	ser := s.serializeMS(sizeBytes)

	txStart := s.now
	if s.nics[src].txFreeAt > txStart {
		txStart = s.nics[src].txFreeAt
	}
	txDone := txStart + ser
	s.nics[src].txFreeAt = txDone

	prop := s.lat(src, dst, s.now, s.rng)
	if prop < 0 {
		prop = 0
	}
	arrive := txDone + prop

	// Receive-side queuing is resolved when the first byte arrives, which
	// requires an event at the arrival time because rxFreeAt may change
	// between now and then.
	s.At(arrive, func() {
		rxStart := s.now
		if s.nics[dst].rxFreeAt > rxStart {
			rxStart = s.nics[dst].rxFreeAt
		}
		rxDone := rxStart + ser + s.cfg.ProcessingMS
		s.nics[dst].rxFreeAt = rxDone
		if delivered != nil {
			s.At(rxDone, func() { delivered(rxDone) })
		}
	})
}

// Run processes events until the queue is empty.
func (s *Sim) Run() {
	for len(s.queue) > 0 {
		s.step()
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain queued.
func (s *Sim) RunUntil(t Time) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

func (s *Sim) step() {
	e := s.queue.pop()
	s.now = e.at
	e.fn()
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }
