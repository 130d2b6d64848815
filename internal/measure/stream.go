package measure

import (
	"fmt"

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
	// a daemon tenant posting tail rows); empty otherwise.
	Tails []TailMatrix
	// MeanPlusStd is the mean + standard deviation matrix (Sect. 3.2),
	// published from the Welford aggregates beside Tails with the same
	// invariants. Present only when the measurement keeps quantile
	// sketches (Options.TailAlpha > 0); nil otherwise, and on every epoch
	// posted to the daemon.
	MeanPlusStd *TailMatrix
}

// TailPercentiles lists the percentile matrices a sketch-enabled streaming
// measurement publishes with every epoch, ascending.
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
// value: the immutable matrix copy, the exact changed-row set since the
// previous snapshot, and the incrementally maintained fingerprint. It is
// the single point where an epoch's invariants are assembled — the
// streaming measurement publishes through it, and so does the durable
// serve daemon when a tenant posts an epoch over HTTP, which is what keeps
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
// TailMatrix, the tail counterpart of PublishEpoch: immutable snapshot,
// exact changed rows, incremental fingerprint. Shared by Stream and the
// durable daemon so tail fingerprints stay bit-compatible across both
// producers.
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
	// Epochs is buffered to hold every epoch of the run, so the measurement
	// never blocks on a slow consumer: a consumer that falls behind (e.g. a
	// solver round outliving an epoch period) simply finds several epochs
	// pending and can skip to the newest.
	Epochs <-chan Epoch

	done chan struct{}
	res  *Result
}

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
// the final epoch and Wait's Result are bit-identical whatever the period.
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

	ch := make(chan Epoch, int(o.DurationMS/periodMS)+2)
	st := &Streamer{Epochs: ch, done: make(chan struct{}), res: m.res}

	go func() {
		defer close(st.done)
		defer close(ch)

		fold := func(dst *core.MutableCostMatrix, src *core.CostMatrix) {
			for i := 0; i < m.n; i++ {
				for j := 0; j < m.n; j++ {
					if i != j {
						dst.Set(i, j, src.At(i, j))
					}
				}
			}
		}
		// Each published matrix gets its own mutable matrix so its
		// changed-row sets and fingerprint evolve independently. Set marks
		// a row dirty only on a real value change, so the published
		// changed-row set is exact even though every entry is re-folded.
		mean := core.NewMutableCostMatrix(m.n)
		var tails []*core.MutableCostMatrix
		var spread *core.MutableCostMatrix
		if o.TailAlpha > 0 {
			tails = make([]*core.MutableCostMatrix, len(TailPercentiles))
			for i := range tails {
				tails[i] = core.NewMutableCostMatrix(m.n)
			}
			spread = core.NewMutableCostMatrix(m.n)
		}
		emit := func(at float64, final bool) {
			fold(mean, m.res.MeanMatrix())
			ep := PublishEpoch(mean, at, final, m.res.TotalSamples)
			if spread != nil {
				for x, pct := range TailPercentiles {
					// Cannot fail: the sketches are on (o.TailAlpha > 0).
					tm, _ := m.res.TailMatrix(pct)
					fold(tails[x], tm)
					ep.Tails = append(ep.Tails, PublishTail(tails[x], pct))
				}
				fold(spread, m.res.MeanPlusStdMatrix())
				msd := PublishTail(spread, 0)
				ep.MeanPlusStd = &msd
			}
			ch <- ep
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
