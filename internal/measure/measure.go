// Package measure implements ClouDiA's pairwise latency measurement schemes
// (Sect. 5): token passing, uncoordinated, and staged. All three estimate the
// mean round-trip time of small TCP messages for every ordered instance
// pair, trading measurement speed against cross-link interference:
//
//   - Token passing: a unique token serializes all probes. Interference-free
//     but sequential, so coverage per unit time is worst. It is the accuracy
//     baseline in Fig. 4.
//   - Uncoordinated: every instance continuously probes, all in parallel.
//     Fast, but replies contend with the replier's own outstanding probe
//     (single-threaded event loop, hypervisor scheduling), inflating and
//     noising some links' estimates.
//   - Staged: a coordinator runs stages of pairwise-disjoint probes (circle
//     method tournament), stageRTTs consecutive RTTs per pair per stage.
//     Parallel like uncoordinated, interference-free like token passing.
//
// The schemes run over the netsim discrete-event simulator, so a "5 minute"
// measurement completes in real milliseconds.
package measure

import (
	"fmt"
	"math/rand"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/netsim"
	"cloudia/internal/sketch"
	"cloudia/internal/stats"
	"cloudia/internal/topology"
)

// DefaultTailAlpha is the conventional relative-error bound for per-link
// quantile sketches (Options.TailAlpha): what the advisor configures for
// every metric but the mean.
const DefaultTailAlpha = sketch.DefaultAlpha

// probeBytes is the probe payload size; the paper uses 1 KB to match
// application workloads.
const probeBytes = 1024

// stageRTTs is the number of consecutive RTTs per pair within one stage of
// the staged scheme (Sect. 5, optimization).
const stageRTTs = 10

// Scheme selects a measurement strategy.
type Scheme string

// The three measurement schemes of Sect. 5.
const (
	Token         Scheme = "token"
	Uncoordinated Scheme = "uncoordinated"
	Staged        Scheme = "staged"
)

// Options configures a measurement run.
type Options struct {
	Scheme Scheme
	// DurationMS is the virtual-time measurement budget. Required.
	DurationMS float64
	// Seed drives all randomness (probe jitter, destination shuffles).
	Seed int64
	// StartHours anchors the measurement at an absolute datacenter time,
	// so non-stationary networks (topology.Profile.RegimeHours) are
	// measured in the regime that will hold during execution.
	StartHours float64
	// SnapshotEveryMS is Stream's epoch period: the running estimate is
	// published as a matrix epoch at that virtual-time period, which is
	// what convergence analysis (Fig. 5) reads. Zero selects one eighth of
	// DurationMS. Run publishes only the final epoch and ignores it.
	SnapshotEveryMS float64
	// Contention models the replier-side delay incurred when a probe
	// arrives at an instance that has its own probe outstanding (the
	// uncoordinated scheme's failure mode). Zero values select defaults:
	// scale 0.15 ms, spike probability 0.15, spike scale 0.6 ms.
	ContentionScale      float64
	ContentionSpikeProb  float64
	ContentionSpikeScale float64
	// TailAlpha, when positive, maintains a per-link quantile sketch (one
	// sketch.Set over all ordered pairs) with that relative-error bound
	// alongside the mean aggregates, so TailMatrix and streaming epoch Tails
	// can publish percentile matrices incrementally. Zero disables sketches
	// and the percentile matrices; a value outside [sketch.MinAlpha, 1) is
	// an error. DefaultTailAlpha is the conventional setting.
	TailAlpha float64
	// Spread names the spread matrices a stream publishes with every epoch
	// beside the mean: Epoch.Tails for SpreadP95 and SpreadP99, which need
	// sketches (TailAlpha > 0) and are not published without them, and
	// Epoch.MeanPlusStd for SpreadMeanPlusStd, which comes from the
	// per-link moments alone and is published whatever TailAlpha is. A
	// stream allocates and folds only the matrices it publishes, so a
	// consumer that searches one metric names that one. Zero selects all
	// three when TailAlpha is positive and the mean alone when it is zero;
	// SpreadNone publishes the mean alone. Run ignores it: it publishes no
	// spread matrix.
	Spread Spread
	// Background, when non-nil, injects application traffic during the
	// measurement — the overlapped-execution mode of Sect. 2.2.2, where the
	// tenant starts the application on the initial allocation instead of
	// idling while ClouDiA measures. Probes then share NICs with the
	// application's messages, degrading measurement accuracy; the
	// extension-overlap experiment quantifies the trade.
	Background *BackgroundTraffic
}

// Spread is a set of the spread-sensitive matrices (Sect. 3.2) a stream
// publishes with each epoch (Options.Spread).
type Spread uint8

// The spread matrices an epoch can carry. SpreadNone names no matrix: it
// only makes a set non-zero, so a set of SpreadNone alone publishes the
// mean matrix and nothing else.
const (
	SpreadP95 Spread = 1 << iota
	SpreadP99
	SpreadMeanPlusStd
	SpreadNone

	spreadAll = SpreadP95 | SpreadP99 | SpreadMeanPlusStd
)

// tail reports whether s names the percentile matrix for pct.
func (s Spread) tail(pct float64) bool {
	switch pct {
	case 95:
		return s&SpreadP95 != 0
	case 99:
		return s&SpreadP99 != 0
	}
	return false
}

// BackgroundTraffic describes the application traffic overlapping a
// measurement: every IntervalMS, each pair exchanges one MsgBytes message in
// each direction.
type BackgroundTraffic struct {
	Pairs      [][2]int
	MsgBytes   int
	IntervalMS float64
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	switch out.Scheme {
	case Token, Uncoordinated, Staged:
	default:
		return out, fmt.Errorf("measure: unknown scheme %q", out.Scheme)
	}
	if out.DurationMS <= 0 {
		return out, fmt.Errorf("measure: non-positive duration %g", out.DurationMS)
	}
	if out.ContentionScale == 0 {
		out.ContentionScale = 0.15
	}
	if out.ContentionSpikeProb == 0 {
		out.ContentionSpikeProb = 0.15
	}
	if out.ContentionSpikeScale == 0 {
		out.ContentionSpikeScale = 0.6
	}
	if out.TailAlpha < 0 {
		return out, fmt.Errorf("measure: negative tail sketch alpha %g", out.TailAlpha)
	}
	if out.TailAlpha > 0 && (out.TailAlpha < sketch.MinAlpha || out.TailAlpha >= 1) {
		return out, fmt.Errorf("measure: tail sketch alpha %g outside [%g, 1)", out.TailAlpha, sketch.MinAlpha)
	}
	if out.Spread&^(spreadAll|SpreadNone) != 0 {
		return out, fmt.Errorf("measure: unknown spread matrices %#x", uint8(out.Spread))
	}
	if out.Spread == 0 {
		out.Spread = SpreadNone
		if out.TailAlpha > 0 {
			out.Spread = spreadAll
		}
	}
	return out, nil
}

// Result holds per-link latency sample aggregates from one measurement run.
type Result struct {
	N            int
	Scheme       Scheme
	DurationMS   float64
	TotalSamples int64

	agg []stats.Moments // per ordered pair, row-major

	// tails, when non-nil, holds a quantile sketch per ordered pair, with
	// the same flat pair index as agg.
	tails *sketch.Set
}

func newResult(n int, scheme Scheme) *Result {
	return &Result{
		N:      n,
		Scheme: scheme,
		agg:    make([]stats.Moments, n*n),
	}
}

// setTailAlpha enables per-link quantile sketches for subsequent samples.
func (r *Result) setTailAlpha(alpha float64) {
	if alpha > 0 {
		r.tails = sketch.NewSet(alpha, r.N*r.N)
	}
}

// TailAlpha reports the relative-error bound of the per-link quantile
// sketches, or 0 when sketches are disabled.
func (r *Result) TailAlpha() float64 {
	if r.tails == nil {
		return 0
	}
	return r.tails.Alpha()
}

func (r *Result) record(i, j int, rtt float64) {
	k := i*r.N + j
	r.agg[k].Add(rtt)
	if r.tails != nil {
		r.tails.Add(k, rtt)
	}
	r.TotalSamples++
}

// SampleCount reports the number of RTT observations for ordered pair (i,j).
func (r *Result) SampleCount(i, j int) int { return r.agg[i*r.N+j].N() }

// MinSamples reports the smallest per-link sample count across all ordered
// pairs, a coverage diagnostic.
func (r *Result) MinSamples() int {
	min := -1
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.N; j++ {
			if i == j {
				continue
			}
			n := r.SampleCount(i, j)
			if min < 0 || n < min {
				min = n
			}
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// globalMean is the fallback cost for links that received no samples, so
// that solvers do not mistake an unmeasured link for a free one.
func (r *Result) globalMean() float64 {
	var w stats.Moments
	for k := range r.agg {
		if r.agg[k].N() > 0 {
			w.Add(r.agg[k].Mean())
		}
	}
	return w.Mean()
}

// MeanMatrix returns the estimated mean RTT per ordered pair. Unsampled
// links fall back to the global mean estimate.
func (r *Result) MeanMatrix() *core.CostMatrix { return r.matrix(r.mean) }

// MeanPlusStdMatrix returns mean + standard deviation per link, the jitter-
// sensitive metric of Sect. 3.2.
func (r *Result) MeanPlusStdMatrix() *core.CostMatrix { return r.matrix(r.meanPlusStd) }

// mean, meanPlusStd and quantile are the per-link summaries of the flat
// pair index k that the matrices publish.
func (r *Result) mean(k int) float64        { return r.agg[k].Mean() }
func (r *Result) meanPlusStd(k int) float64 { return r.agg[k].Mean() + r.agg[k].Std() }
func (r *Result) quantile(pct float64) func(k int) float64 {
	q := pct / 100
	return func(k int) float64 { return r.tails.Quantile(k, q) }
}

// TailMatrix returns the pct-percentile RTT per link estimated from the
// per-link quantile sketches, the tail-latency metric of Sect. 3.2: each
// sampled link reports a value within relative error TailAlpha of its
// exact nearest-rank percentile sample (see internal/sketch for the bound
// against interpolated percentiles). Unsampled links fall back to the
// global mean estimate. Requires Options.TailAlpha > 0 at measurement time.
func (r *Result) TailMatrix(pct float64) (*core.CostMatrix, error) {
	if r.tails == nil {
		return nil, fmt.Errorf("measure: tail sketches disabled (Options.TailAlpha = 0)")
	}
	return r.matrix(r.quantile(pct)), nil
}

// matrix builds a cost matrix from a per-link summary f of the flat pair
// index k, with the global-mean fallback on unsampled links.
func (r *Result) matrix(f func(k int) float64) *core.CostMatrix {
	m := core.NewCostMatrix(r.N)
	r.each(r.globalMean(), f, m.Set)
	return m
}

// each calls set with every off-diagonal link's cost: the summary f of its
// flat pair index k, or fallback when the link has no sample. It is the one
// per-cell rule of every matrix r publishes, whole (matrix) or folded into
// a streaming epoch.
func (r *Result) each(fallback float64, f func(k int) float64, set func(i, j int, v float64)) {
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.N; j++ {
			if i == j {
				continue
			}
			k := i*r.N + j
			if r.agg[k].N() == 0 {
				set(i, j, fallback)
				continue
			}
			set(i, j, f(k))
		}
	}
}

// prepare validates opts and builds the simulator, result aggregate, and
// scheme runner for Stream. The returned runner has background
// traffic scheduled but no scheme started.
func prepare(dc *topology.Datacenter, instances []cloud.Instance, opts Options) (*runner, Options, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, o, err
	}
	n := len(instances)
	if n < 2 {
		return nil, o, fmt.Errorf("measure: need >= 2 instances, got %d", n)
	}

	instLat := cloud.LatencyFunc(dc, instances, o.StartHours)
	// Endpoint n is the staged scheme's coordinator; its control messages
	// traverse an ordinary in-datacenter path.
	coordLat := dc.Profile().AggBase / 2
	lat := func(src, dst int, now netsim.Time, rng *rand.Rand) float64 {
		if src >= n || dst >= n {
			return coordLat
		}
		return instLat(src, dst, now, rng)
	}
	sim, err := netsim.New(n+1, lat, o.Seed, netsim.Config{})
	if err != nil {
		return nil, o, err
	}

	res := newResult(n, o.Scheme)
	res.DurationMS = o.DurationMS
	res.setTailAlpha(o.TailAlpha)
	m := &runner{sim: sim, res: res, opts: o, n: n,
		outstanding: make([]int, n),
		rng:         rand.New(rand.NewSource(o.Seed ^ 0x6d656173)),
	}

	if bg := o.Background; bg != nil {
		if bg.IntervalMS <= 0 || bg.MsgBytes <= 0 {
			return nil, o, fmt.Errorf("measure: invalid background traffic %+v", *bg)
		}
		for _, pr := range bg.Pairs {
			if pr[0] < 0 || pr[0] >= n || pr[1] < 0 || pr[1] >= n || pr[0] == pr[1] {
				return nil, o, fmt.Errorf("measure: background pair %v out of range", pr)
			}
		}
		var tick func()
		tick = func() {
			if m.done() {
				return
			}
			for _, pr := range bg.Pairs {
				sim.Send(pr[0], pr[1], bg.MsgBytes, nil)
				sim.Send(pr[1], pr[0], bg.MsgBytes, nil)
			}
			sim.After(bg.IntervalMS, tick)
		}
		sim.At(0, tick)
	}
	return m, o, nil
}

// Run executes one measurement over the given instances and returns the
// aggregated result: Stream with a single final epoch, drained unread, so
// the epoch carries no spread matrix whatever opts.Spread says; the
// Result's own matrices cover every metric. At least two instances are
// required.
func Run(dc *topology.Datacenter, instances []cloud.Instance, opts Options) (*Result, error) {
	opts.Spread = SpreadNone
	st, err := stream(dc, instances, opts, opts.DurationMS)
	if err != nil {
		return nil, err
	}
	for range st.Epochs {
	}
	return st.Wait(), nil
}

// runner holds the per-run mutable state shared by the scheme drivers.
type runner struct {
	sim  *netsim.Sim
	res  *Result
	opts Options
	n    int
	rng  *rand.Rand
	// outstanding[i] counts instance i's own probes in flight; a reply
	// issued while the replier has an outstanding probe contends with it.
	outstanding []int
	// stop is closed when the stream's consumer reads no more epochs
	// (Streamer.Stop); nil for a measurement nobody stops.
	stop <-chan struct{}
}

// done reports that the drivers must schedule no further probe: the
// budget has expired or the consumer has stopped the stream.
func (m *runner) done() bool { return m.sim.Now() >= m.opts.DurationMS || m.stopped() }

// stopped reports whether the stream's consumer has called Stop.
func (m *runner) stopped() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// start launches the configured scheme's drivers. prepare validated the
// scheme, so the switch is exhaustive.
func (m *runner) start() {
	switch m.opts.Scheme {
	case Token:
		m.runToken()
	case Uncoordinated:
		m.runUncoordinated()
	case Staged:
		m.runStaged()
	}
}

// probe performs one RTT measurement from i to j and calls next when the
// reply lands. The replier contends if it is itself mid-probe.
func (m *runner) probe(i, j int, record bool, next func()) {
	start := m.sim.Now()
	m.outstanding[i]++
	m.sim.Send(i, j, probeBytes, func(netsim.Time) {
		// j received the entire probe; reply after any contention delay.
		delay := 0.0
		if m.outstanding[j] > 0 {
			delay = m.rng.ExpFloat64() * m.opts.ContentionScale
			if m.rng.Float64() < m.opts.ContentionSpikeProb {
				delay += m.rng.ExpFloat64() * m.opts.ContentionSpikeScale
			}
		}
		m.sim.After(delay, func() {
			m.sim.Send(j, i, probeBytes, func(at netsim.Time) {
				m.outstanding[i]--
				if record {
					m.res.record(i, j, at-start)
				}
				if next != nil {
					next()
				}
			})
		})
	})
}

// runToken drives the token-passing scheme: a single token visits ordered
// pairs in sweep order (offset rounds), so exactly one message is in flight
// at any time.
func (m *runner) runToken() {
	const tokenBytes = 64
	cur := 0
	round := 1
	idx := 0
	var step func()
	step = func() {
		if m.done() {
			return
		}
		i := idx
		j := (idx + round) % m.n
		idx++
		if idx == m.n {
			idx = 0
			round++
			if round == m.n {
				round = 1
			}
		}
		measure := func() {
			m.probe(i, j, true, step)
		}
		if cur != i {
			from := cur
			cur = i
			m.sim.Send(from, i, tokenBytes, func(netsim.Time) { measure() })
		} else {
			measure()
		}
	}
	step()
}

// runUncoordinated drives the uncoordinated scheme: every instance
// continuously probes destinations from its own shuffled cycle, all in
// parallel, with no coordination — and therefore with contention.
func (m *runner) runUncoordinated() {
	for i := 0; i < m.n; i++ {
		i := i
		perm := m.rng.Perm(m.n - 1)
		k := 0
		var loop func()
		loop = func() {
			if m.done() {
				return
			}
			j := perm[k%len(perm)]
			if j >= i {
				j++
			}
			k++
			m.probe(i, j, true, loop)
		}
		// Stagger starts slightly so instances do not fire in lockstep.
		m.sim.At(m.rng.Float64()*0.01, loop)
	}
}

// runStaged drives the staged scheme: the coordinator (endpoint n) runs
// circle-method tournament rounds; each stage probes floor(n/2) disjoint
// pairs in parallel, stageRTTs RTTs in each direction, then reports back. A
// stage's pairs are computed from its round index when it starts.
func (m *runner) runStaged() {
	const ctrlBytes = 64
	rounds := m.n + m.n%2 - 1
	var pairs [][2]int
	round := 0
	var startStage func()
	startStage = func() {
		if m.done() {
			return
		}
		pairs = stagePairs(pairs[:0], m.n, round%rounds)
		// Alternate probe direction on odd sweeps so both ordered pairs get
		// sampled.
		flip := (round/rounds)%2 == 1
		round++
		remaining := len(pairs)
		for _, pr := range pairs {
			a, b := pr[0], pr[1]
			if flip {
				a, b = b, a
			}
			// Coordinator notifies a of its partner b.
			m.sim.Send(m.n, a, ctrlBytes, func(netsim.Time) {
				k := 0
				var seq func()
				seq = func() {
					if k < stageRTTs && !m.done() {
						k++
						m.probe(a, b, true, seq)
						return
					}
					// Report back to the coordinator.
					m.sim.Send(a, m.n, ctrlBytes, func(netsim.Time) {
						remaining--
						if remaining == 0 {
							startStage()
						}
					})
				}
				seq()
			})
		}
	}
	startStage()
}

// stagePairs appends to dst round r of the circle-method round-robin
// tournament over n players, for r in [0, p-1) where p is n rounded up to
// even. The p-1 rounds are disjoint sets of pairs that jointly cover every
// unordered pair exactly once. The players stand on a ring of p positions
// and position k meets position p-1-k. Position 0 holds player 0 in every
// round, and position i >= 1 holds player 1 + (i-1-r) mod (p-1): the ring
// rotated r times. For odd n, player n is the bye and its partner sits the
// round out.
func stagePairs(dst [][2]int, n, r int) [][2]int {
	p := n + n%2
	at := func(i int) int {
		if i == 0 {
			return 0
		}
		return 1 + (i-1-r+p-1)%(p-1)
	}
	for k := 0; k < p/2; k++ {
		a, b := at(k), at(p-1-k)
		if a == n || b == n {
			continue // the bye
		}
		dst = append(dst, [2]int{a, b})
	}
	return dst
}
