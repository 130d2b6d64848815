package bench

import (
	"fmt"

	"cloudia/internal/cloud"
	"cloudia/internal/measure"
	"cloudia/internal/stats"
	"cloudia/internal/topology"
)

// Network-level figures: latency heterogeneity and stability (Figs. 1, 2,
// 18-21) and measurement-scheme accuracy and convergence (Figs. 4, 5).

func init() {
	register("fig01", Fig01LatencyCDF)
	register("fig02", Fig02LatencyStability)
	register("fig04", Fig04MeasurementError)
	register("fig05", Fig05MeasurementConvergence)
	register("fig18", providerCDF("fig18", "Latency heterogeneity in Google Compute Engine", topology.GCEProfile, 50))
	register("fig19", providerStability("fig19", "Mean latency stability in Google Compute Engine", topology.GCEProfile, 60))
	register("fig20", providerCDF("fig20", "Latency heterogeneity in Rackspace Cloud Server", topology.RackspaceProfile, 50))
	register("fig21", providerStability("fig21", "Mean latency stability in Rackspace Cloud Server", topology.RackspaceProfile, 60))
}

// allocate builds the standard experimental fleet.
func allocate(prof topology.Profile, n int, seed int64) (*topology.Datacenter, []cloud.Instance, error) {
	dc, err := topology.New(prof, seed)
	if err != nil {
		return nil, nil, err
	}
	prov, err := cloud.NewProvider(dc, 0.6, seed+1)
	if err != nil {
		return nil, nil, err
	}
	insts, err := prov.RunInstances(n)
	if err != nil {
		return nil, nil, err
	}
	return dc, insts, nil
}

// Fig01LatencyCDF reproduces Fig. 1: the CDF of mean pairwise latencies
// among 100 EC2-like instances. Paper headline: ~10% of pairs above 0.7 ms,
// bottom ~10% below 0.4 ms.
func Fig01LatencyCDF(opts Options) (*Figure, error) {
	n := 100
	if opts.Quick {
		n = 40
	}
	dc, insts, err := allocate(topology.EC2Profile(), n, opts.Seed+101)
	if err != nil {
		return nil, err
	}
	lat := cloud.MeanRTTMatrix(dc, insts).OffDiagonal()
	fig := &Figure{
		ID: "fig01", Title: "Latency heterogeneity in EC2 (CDF of mean pairwise latency)",
		XLabel: "latency_ms", YLabel: "CDF",
	}
	pts := stats.CDF(lat)
	s := Series{Name: "CDF"}
	for _, p := range pts {
		s.X = append(s.X, p.Value)
		s.Y = append(s.Y, p.Fraction)
	}
	fig.Series = append(fig.Series, s)
	fig.note("fraction of pairs above 0.7 ms: %.3f (paper: ~0.10)", stats.FractionAbove(lat, 0.7))
	fig.note("fraction of pairs below 0.4 ms: %.3f (paper: ~0.10)", stats.FractionBelow(lat, 0.4))
	return fig, nil
}

// Fig02LatencyStability reproduces Fig. 2: mean latencies of four
// representative links over 200 hours, averaged every 2 hours. Paper
// headline: means are stable over time.
func Fig02LatencyStability(opts Options) (*Figure, error) {
	dc, insts, err := allocate(topology.EC2Profile(), 100, opts.Seed+102)
	if err != nil {
		return nil, err
	}
	hours := 200.0
	if opts.Quick {
		hours = 40
	}
	// Four representative links spanning the latency range: pick pairs at
	// distinct layers.
	m := cloud.MeanRTTMatrix(dc, insts)
	lat := m.OffDiagonal()
	// Representative targets: min, 1/3, 2/3, max quantiles.
	q := func(p float64) float64 {
		v, _ := stats.Percentile(lat, p)
		return v
	}
	targets := []float64{q(5), q(40), q(70), q(97)}
	type link struct{ a, b int }
	links := make([]link, len(targets))
	for li, target := range targets {
		bestDiff := -1.0
		for i := 0; i < len(insts); i++ {
			for j := 0; j < len(insts); j++ {
				if i == j {
					continue
				}
				d := m.At(i, j) - target
				if d < 0 {
					d = -d
				}
				if bestDiff < 0 || d < bestDiff {
					bestDiff = d
					links[li] = link{i, j}
				}
			}
		}
	}
	fig := &Figure{
		ID: "fig02", Title: "Mean latency stability in EC2 (4 links, 2 h averages)",
		XLabel: "time_hours", YLabel: "mean_latency_ms",
	}
	var maxRel float64
	for li, lk := range links {
		s := Series{Name: fmt.Sprintf("Link %d", li+1)}
		var w stats.Welford
		for h := 0.0; h <= hours; h += 2 {
			rtt := dc.MeanRTTAt(insts[lk.a].Host, insts[lk.b].Host, h)
			s.X = append(s.X, h)
			s.Y = append(s.Y, rtt)
			w.Add(rtt)
		}
		rel := (w.Max() - w.Min()) / w.Mean()
		if rel > maxRel {
			maxRel = rel
		}
		fig.Series = append(fig.Series, s)
	}
	fig.note("max relative wobble of any link's 2 h mean: %.1f%% (paper: visually flat lines)", 100*maxRel)
	return fig, nil
}

// Fig04MeasurementError reproduces Fig. 4: CDF of per-link normalized
// relative error of the staged and uncoordinated schemes against the token
// passing baseline, on 50 instances. Paper headline: staged has 90% of links
// under 10% error and max under 30%; uncoordinated has 10% of links above
// 50% error.
func Fig04MeasurementError(opts Options) (*Figure, error) {
	n := 50
	// The parallel schemes get a short budget on purpose: the paper
	// compares schemes under equal (limited) measurement time, where the
	// uncoordinated scheme's contention noise has not yet averaged out.
	tokenMS, parMS := 60000.0, 1500.0
	if opts.Quick {
		n = 16
		tokenMS, parMS = 8000, 800
	}
	dc, insts, err := allocate(topology.EC2Profile(), n, opts.Seed+104)
	if err != nil {
		return nil, err
	}
	baseline, err := measure.Run(dc, insts, measure.Options{
		Scheme: measure.Token, DurationMS: tokenMS, Seed: opts.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	base := stats.NormalizeUnit(baseline.MeanMatrix().OffDiagonal())

	fig := &Figure{
		ID: "fig04", Title: "Normalized relative error vs token passing (CDF)",
		XLabel: "relative_error", YLabel: "CDF",
	}
	for _, scheme := range []measure.Scheme{measure.Staged, measure.Uncoordinated} {
		res, err := measure.Run(dc, insts, measure.Options{
			Scheme: scheme, DurationMS: parMS, Seed: opts.Seed + 2,
		})
		if err != nil {
			return nil, err
		}
		est := stats.NormalizeUnit(res.MeanMatrix().OffDiagonal())
		errs, err := stats.RelativeErrors(est, base)
		if err != nil {
			return nil, err
		}
		pts := stats.CDF(errs)
		s := Series{Name: string(scheme)}
		for _, p := range pts {
			s.X = append(s.X, p.Value)
			s.Y = append(s.Y, p.Fraction)
		}
		fig.Series = append(fig.Series, s)
		p90, _ := stats.Percentile(errs, 90)
		pmax, _ := stats.Percentile(errs, 100)
		fig.note("%s: p90 error %.3f, max %.3f, fraction above 0.5: %.3f",
			scheme, p90, pmax, stats.FractionAbove(errs, 0.5))
	}
	return fig, nil
}

// Fig05MeasurementConvergence reproduces Fig. 5: RMSE of the staged scheme's
// running mean estimate against the final (long-run) estimate, over
// measurement time. Paper headline: error drops quickly within the first ~1/6
// of the budget and smooths out.
func Fig05MeasurementConvergence(opts Options) (*Figure, error) {
	n := 100
	durMS := 6000.0
	if opts.Quick {
		n = 30
		durMS = 2000
	}
	dc, insts, err := allocate(topology.EC2Profile(), n, opts.Seed+105)
	if err != nil {
		return nil, err
	}
	st, err := measure.Stream(dc, insts, measure.Options{
		Scheme: measure.Staged, DurationMS: durMS, Seed: opts.Seed + 3,
		SnapshotEveryMS: durMS / 30,
	})
	if err != nil {
		return nil, err
	}
	var epochs []measure.Epoch
	for ep := range st.Epochs {
		epochs = append(epochs, ep)
	}
	truth := stats.NormalizeUnit(epochs[len(epochs)-1].Matrix.OffDiagonal())
	fig := &Figure{
		ID: "fig05", Title: "Staged measurement convergence (RMSE vs ground truth)",
		XLabel: "measurement_ms", YLabel: "rmse",
	}
	s := Series{Name: "RMSE"}
	for _, ep := range epochs {
		est := stats.NormalizeUnit(ep.Matrix.OffDiagonal())
		rmse, err := stats.RMSE(est, truth)
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, ep.AtMS)
		s.Y = append(s.Y, rmse)
	}
	fig.Series = append(fig.Series, s)
	if len(s.Y) >= 6 {
		early := s.Y[len(s.Y)/6]
		late := s.Y[len(s.Y)-2]
		fig.note("RMSE at 1/6 budget: %.4g; near end: %.4g (fast early drop, then flat)", early, late)
	}
	return fig, nil
}

// providerCDF builds the Appendix 3 heterogeneity CDFs (Figs. 18 and 20).
func providerCDF(id, title string, prof func() topology.Profile, n int) Runner {
	return func(opts Options) (*Figure, error) {
		n := n
		if opts.Quick {
			n = 25
		}
		dc, insts, err := allocate(prof(), n, opts.Seed+180)
		if err != nil {
			return nil, err
		}
		lat := cloud.MeanRTTMatrix(dc, insts).OffDiagonal()
		fig := &Figure{ID: id, Title: title, XLabel: "latency_ms", YLabel: "CDF"}
		s := Series{Name: "CDF"}
		for _, p := range stats.CDF(lat) {
			s.X = append(s.X, p.Value)
			s.Y = append(s.Y, p.Fraction)
		}
		fig.Series = append(fig.Series, s)
		p5, _ := stats.Percentile(lat, 5)
		p95, _ := stats.Percentile(lat, 95)
		fig.note("p5 = %.3f ms, p95 = %.3f ms (heterogeneity present, narrower than EC2)", p5, p95)
		return fig, nil
	}
}

// providerStability builds the Appendix 3 stability plots (Figs. 19 and 21).
func providerStability(id, title string, prof func() topology.Profile, hours float64) Runner {
	return func(opts Options) (*Figure, error) {
		hours := hours
		if opts.Quick {
			hours = 20
		}
		dc, insts, err := allocate(prof(), 50, opts.Seed+190)
		if err != nil {
			return nil, err
		}
		fig := &Figure{ID: id, Title: title, XLabel: "time_hours", YLabel: "mean_latency_ms"}
		// Four arbitrary distinct links.
		pairs := [][2]int{{0, 1}, {2, 17}, {5, 33}, {8, 44}}
		var maxRel float64
		for li, pr := range pairs {
			s := Series{Name: fmt.Sprintf("Link %d", li+1)}
			var w stats.Welford
			for h := 0.0; h <= hours; h += 1 {
				rtt := dc.MeanRTTAt(insts[pr[0]].Host, insts[pr[1]].Host, h)
				s.X = append(s.X, h)
				s.Y = append(s.Y, rtt)
				w.Add(rtt)
			}
			rel := (w.Max() - w.Min()) / w.Mean()
			if rel > maxRel {
				maxRel = rel
			}
			fig.Series = append(fig.Series, s)
		}
		fig.note("max relative wobble of hourly means: %.1f%%", 100*maxRel)
		return fig, nil
	}
}
