package advisor

import (
	"fmt"

	"cloudia/internal/measure"
	"cloudia/internal/solver"
)

// ObjectiveSpec is the one tenant-facing description of *what to optimize*,
// accepted uniformly by Advise, StreamingAdvise, the durable daemon
// (serve.AdviseRequest), the HTTP API, and the CLI. Entry points cast their
// raw strings into a spec and call Validate; the spec is the single
// authority on which combinations exist.
//
// Percentile metrics (p95, p99) select the multi-objective mode: search
// optimizes the percentile matrix and, unless NoMeanTieBreak is set,
// candidates of equal percentile cost are ranked by mean cost
// (solver.Problem.Tie) — "optimize the tail, tie-break on the mean".
type ObjectiveSpec struct {
	// Objective selects longest link or longest path; required.
	Objective solver.Objective
	// Metric summarizes per-link latency samples into the cost matrix
	// searched; empty selects MetricMean, the paper's robust default
	// (Sect. 6.4.2).
	Metric Metric
	// Scheme is the measurement scheme; empty selects measure.Staged. Only
	// meaningful at entry points that measure (Advise, StreamingAdvise, the
	// CLI's serve fleets); serving paths fed pre-measured matrices or
	// posted epochs ignore it.
	Scheme measure.Scheme
	// NoMeanTieBreak disables the mean-cost tie-break for percentile
	// metrics, making the search single-objective on the percentile matrix
	// alone. Ignored for non-percentile metrics.
	NoMeanTieBreak bool
}

// WithDefaults returns the spec with empty fields resolved to the paper's
// defaults (MetricMean, measure.Staged). The objective has no default; a
// zero objective fails Validate.
func (s ObjectiveSpec) WithDefaults() ObjectiveSpec {
	if s.Metric == "" {
		s.Metric = MetricMean
	}
	if s.Scheme == "" {
		s.Scheme = measure.Staged
	}
	return s
}

// Validate checks the spec. Empty metric and scheme are accepted (they
// default); an unknown value of any field is rejected here, once, for
// every entry point.
func (s ObjectiveSpec) Validate() error {
	switch s.Objective {
	case solver.LongestLink, solver.LongestPath:
	default:
		return fmt.Errorf("advisor: unknown objective %q", s.Objective)
	}
	switch s.Metric {
	case "", MetricMean, MetricMeanPlusStd, MetricP95, MetricP99:
	default:
		return fmt.Errorf("advisor: unknown metric %q", s.Metric)
	}
	switch s.Scheme {
	case "", measure.Token, measure.Uncoordinated, measure.Staged:
	default:
		return fmt.Errorf("advisor: unknown measurement scheme %q", s.Scheme)
	}
	return nil
}

// TailPercentile returns the percentile a percentile metric selects (95 or
// 99), or 0 for non-percentile metrics. A non-zero return means the search
// runs on a percentile matrix, which streaming producers must publish
// (measure.Options.TailAlpha > 0).
func (s ObjectiveSpec) TailPercentile() float64 {
	switch s.Metric {
	case MetricP95:
		return 95
	case MetricP99:
		return 99
	}
	return 0
}

// spread names the one spread matrix a search under the spec reads, for a
// measurement that publishes only that one beside the mean.
func (s ObjectiveSpec) spread() measure.Spread {
	switch s.Metric {
	case MetricP95:
		return measure.SpreadP95
	case MetricP99:
		return measure.SpreadP99
	case MetricMeanPlusStd:
		return measure.SpreadMeanPlusStd
	}
	return measure.SpreadNone
}

// TieBreak reports whether the search should tie-break equal-cost
// candidates on the mean matrix: on for percentile metrics unless
// NoMeanTieBreak is set.
func (s ObjectiveSpec) TieBreak() bool {
	return s.TailPercentile() > 0 && !s.NoMeanTieBreak
}
