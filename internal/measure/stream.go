package measure

import (
	"fmt"
	"sync"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/topology"
)

// This file implements streaming measurement: instead of materializing the
// full m x m sample set before any solver sees a cost, Stream publishes the
// running mean-latency estimate as a sequence of matrix epochs while the
// measurement is still in flight. Each epoch carries the set of rows that
// actually changed and the matrix's content fingerprint, the key of the
// serving layer's preprocessing cache — advising can begin after the first
// epoch and refine against later ones, overlapping measurement with search the way the
// paper's staged scheme overlaps probes with each other (Sect. 5), and
// reproducing the Fig. 5 convergence story end to end. Run is the
// one-epoch case: only the final epoch, drained.

// Epoch is one published state of the streaming mean-cost estimate.
type Epoch struct {
	// Index numbers epochs from 1 in publication order.
	Index int
	// AtMS is the virtual measurement time of the snapshot.
	AtMS float64
	// Final marks the epoch published after the measurement budget expired.
	// Its matrices are bit-identical whatever the epoch period, so they
	// equal Run's for the same options and seed.
	Final bool
	// Matrix is an immutable snapshot of the running mean estimate, with the
	// usual global-mean fallback on still-unsampled links.
	Matrix *core.CostMatrix
	// ChangedRows lists, in ascending order, the rows whose values differ
	// from the previous epoch's matrix. Rows not listed are bitwise
	// identical, so epoch consumers may reuse anything derived from them.
	ChangedRows []int
	// Fingerprint is Matrix's content hash, maintained incrementally by the
	// producer (only changed rows are rehashed per epoch). Zero means the
	// producer did not fill it; consumers needing a key then fall back to
	// Matrix.Fingerprint(). Content-addressed caches key shared
	// preprocessing artifacts by it.
	Fingerprint core.Fingerprint
	// Samples is the cumulative RTT observation count at the snapshot.
	Samples int64
	// Tails holds the percentile matrices published alongside the mean,
	// in ascending-percentile order (TailPercentiles). Present only when
	// the producer maintains quantile sketches (Options.TailAlpha > 0, or
	// a daemon tenant posting tail rows), and then only the percentiles
	// Options.Spread names; empty otherwise.
	Tails []TailMatrix
	// MeanPlusStd is the mean + standard deviation matrix (Sect. 3.2),
	// published from the Welford aggregates beside Tails with the same
	// invariants. Present only when Options.Spread names it, explicitly or
	// as the zero Spread of a sketch-enabled stream; it needs no sketch.
	// nil otherwise, and on every epoch posted to the daemon.
	MeanPlusStd *TailMatrix
}

// TailPercentiles lists the percentile matrices a sketch-enabled streaming
// measurement can publish with every epoch, ascending.
var TailPercentiles = []float64{95, 99}

// TailMatrix is one spread-sensitive matrix published with an epoch: a
// percentile in Epoch.Tails, or Epoch.MeanPlusStd. It carries
// the same invariants as the epoch's mean matrix: an immutable snapshot,
// the exact ascending set of rows that changed since the previous epoch's
// matrix for the same percentile, and an incrementally maintained content
// fingerprint of its own — percentile matrices are distinct cache keys
// from the mean matrix they ride along with.
type TailMatrix struct {
	// Pct is the percentile, e.g. 95 or 99; zero on Epoch.MeanPlusStd.
	Pct float64
	// Matrix is the immutable percentile estimate snapshot.
	Matrix *core.CostMatrix
	// ChangedRows lists, ascending, the rows that differ from the previous
	// epoch's matrix for this percentile. Rows not listed are bitwise
	// identical.
	ChangedRows []int
	// Fingerprint is Matrix's content hash, maintained incrementally by
	// the producer. Zero means unset; consumers fall back to
	// Matrix.Fingerprint().
	Fingerprint core.Fingerprint
}

// Tail returns the published percentile matrix for pct, or nil when this
// epoch carries none (producer without sketches, or an unpublished
// percentile).
func (e *Epoch) Tail(pct float64) *TailMatrix {
	for i := range e.Tails {
		if e.Tails[i].Pct == pct {
			return &e.Tails[i]
		}
	}
	return nil
}

// PublishEpoch folds one snapshot of a mutable estimate into an Epoch
// value: the immutable matrix snapshot, which shares mm's storage until
// mm's next changing Set copies it, the exact changed-row set since the
// previous snapshot, and the incrementally maintained fingerprint. The
// durable serve daemon publishes a posted epoch through the same
// MutableCostMatrix Snapshot and Fingerprint, which is what keeps
// daemon-side fingerprints bit-compatible with measurement-side ones.
func PublishEpoch(mm *core.MutableCostMatrix, atMS float64, final bool, samples int64) Epoch {
	snap, changed := mm.Snapshot()
	return Epoch{
		Index:       mm.Epoch(),
		AtMS:        atMS,
		Final:       final,
		Matrix:      snap,
		ChangedRows: changed,
		Fingerprint: mm.Fingerprint(),
		Samples:     samples,
	}
}

// PublishTail folds one snapshot of a mutable percentile estimate into a
// TailMatrix, the tail counterpart of PublishEpoch: immutable snapshot
// (copy-on-write, as there), exact changed rows, incremental fingerprint,
// bit-compatible with the tail fingerprints the durable daemon derives the
// same way.
func PublishTail(mm *core.MutableCostMatrix, pct float64) TailMatrix {
	snap, changed := mm.Snapshot()
	return TailMatrix{
		Pct:         pct,
		Matrix:      snap,
		ChangedRows: changed,
		Fingerprint: mm.Fingerprint(),
	}
}

// Streamer is a measurement in flight. Epochs delivers the matrix epochs in
// order and is closed after the final epoch; Wait blocks until the
// measurement completes and returns the full aggregate result.
type Streamer struct {
	// Epochs holds at most one pending epoch. The measurement pauses at
	// the next epoch boundary until its consumer takes the pending one, so
	// a consumer slower than the measurement bounds the run-ahead, and the
	// snapshots it keeps alive, to one epoch. A consumer that stops reading
	// before the channel closes must call Stop, or the measurement never
	// finishes and Wait never returns.
	Epochs <-chan Epoch

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	res      *Result
}

// Stop tells the measurement that its consumer reads no more epochs. After
// it the stream publishes nothing, the scheme drivers schedule no further
// probe, and Wait returns once the probes in flight have landed, with a
// Result that covers only the probes made so far. Stop after the stream
// has closed does nothing; it may be called more than once, from any
// goroutine.
func (s *Streamer) Stop() { s.stopOnce.Do(func() { close(s.stop) }) }

// Wait blocks until the measurement completes and returns its aggregate
// result.
func (s *Streamer) Wait() *Result {
	<-s.done
	return s.res
}

// Stream starts a measurement whose running mean estimate is published as
// matrix epochs every Options.SnapshotEveryMS of virtual time (one eighth of
// the measurement budget when unset), plus a final epoch when the budget
// expires. Options are validated synchronously; the simulation itself runs
// on its own goroutine so the caller can consume epochs while measurement
// progresses.
//
// Epoch snapshots only read the sample aggregates — they never touch the
// simulator or its RNG — so publishing them cannot perturb the measurement:
// the final epoch and Wait's Result are bit-identical whatever the period,
// and whatever the pace of the consumer.
func Stream(dc *topology.Datacenter, instances []cloud.Instance, opts Options) (*Streamer, error) {
	if opts.SnapshotEveryMS < 0 {
		return nil, fmt.Errorf("measure: negative snapshot period %g", opts.SnapshotEveryMS)
	}
	period := opts.SnapshotEveryMS
	if period == 0 {
		period = opts.DurationMS / 8
	}
	return stream(dc, instances, opts, period)
}

// stream runs Stream with an epoch period already resolved; a period of at
// least the measurement budget publishes only the final epoch.
func stream(dc *topology.Datacenter, instances []cloud.Instance, opts Options, periodMS float64) (*Streamer, error) {
	m, o, err := prepare(dc, instances, opts)
	if err != nil {
		return nil, err
	}

	ch := make(chan Epoch, 1)
	st := &Streamer{Epochs: ch, stop: make(chan struct{}), done: make(chan struct{}), res: m.res}
	m.stop = st.stop

	//cloudia:nondet-ok the one pump goroutine runs the whole simulation in order; the consumer only reads the immutable snapshots it publishes
	go func() {
		defer close(st.done)
		defer close(ch)

		// fold writes the per-link summary f of the running aggregates
		// straight into dst, by the rule every Result matrix follows.
		fold := func(dst *core.MutableCostMatrix, fallback float64, f func(k int) float64) {
			m.res.each(fallback, f, func(i, j int, v float64) { dst.Set(i, j, v) })
		}
		// Each published matrix gets its own mutable matrix so its
		// changed-row sets and fingerprint evolve independently. Set marks
		// a row dirty only on a real value change, so the published
		// changed-row set is exact even though every entry is re-folded.
		// Only the spread matrices the options name are kept.
		mean := core.NewMutableCostMatrix(m.n)
		type tail struct {
			pct float64
			mm  *core.MutableCostMatrix
		}
		var tails []tail
		var spread *core.MutableCostMatrix
		if o.TailAlpha > 0 {
			for _, pct := range TailPercentiles {
				if o.Spread.tail(pct) {
					tails = append(tails, tail{pct, core.NewMutableCostMatrix(m.n)})
				}
			}
		}
		if o.Spread&SpreadMeanPlusStd != 0 {
			spread = core.NewMutableCostMatrix(m.n)
		}
		emit := func(at float64, final bool) {
			if m.stopped() {
				return
			}
			fallback := m.res.globalMean()
			fold(mean, fallback, m.res.mean)
			ep := PublishEpoch(mean, at, final, m.res.TotalSamples)
			for _, t := range tails {
				fold(t.mm, fallback, m.res.quantile(t.pct))
				ep.Tails = append(ep.Tails, PublishTail(t.mm, t.pct))
			}
			if spread != nil {
				fold(spread, fallback, m.res.meanPlusStd)
				msd := PublishTail(spread, 0)
				ep.MeanPlusStd = &msd
			}
			select {
			case ch <- ep:
			case <-st.stop:
			}
		}

		for t := periodMS; t < o.DurationMS; t += periodMS {
			t := t
			m.sim.At(t, func() { emit(t, false) })
		}
		m.start()
		m.sim.RunUntil(o.DurationMS)
		emit(o.DurationMS, true)
	}()
	return st, nil
}
