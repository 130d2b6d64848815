package main

import (
	"sort"
	"strings"
)

// sizes scales the workloads; quickSizes keeps the tests fast under -race.
// Counts named perS are per second of -seconds (see phase.ops), sized so
// that a measured phase lasts about -seconds on the reference box.
type sizes struct {
	setupReps int
	setupMinS float64

	ingestTenants, ingestN, ingestRows int
	ingestRate                         float64 // open-loop epochs per second
	ingestOpenPerS, ingestCapPerS      float64 // open-loop and closed-loop epochs

	fleetN, fleetNodes                 int
	fleetBudget                        int64
	fleetCyclesPerS, fleetRestartsPerS float64 // cycles of each client; restarts

	coldN, coldNodes int
	coldBudget       int64
	coldItersPerS    float64

	cliRows, cliCols int
	cliRoundBudget   int64
	cliItersPerS     float64

	// soloEvery runs the portfolio members solo on every soloEvery-th traced
	// solve; they take as long as the portfolio itself.
	soloEvery int
}

var fullSizes = sizes{
	setupReps: 3, setupMinS: 0.5,
	ingestTenants: 16, ingestN: 300, ingestRows: 8, ingestRate: 150,
	ingestOpenPerS: 125, ingestCapPerS: 200.0 / 3,
	fleetN: 300, fleetNodes: 150, fleetBudget: 30000,
	fleetCyclesPerS: 1.5, fleetRestartsPerS: 1.0 / 3,
	coldN: 1000, coldNodes: 500, coldBudget: 30000, coldItersPerS: 14.0 / 30,
	cliRows: 15, cliCols: 20, cliRoundBudget: 30000, cliItersPerS: 0.5,
	soloEvery: 8,
}

var quickSizes = sizes{
	setupReps:     1,
	ingestTenants: 4, ingestN: 40, ingestRows: 4, ingestRate: 200,
	ingestOpenPerS: 150, ingestCapPerS: 100,
	fleetN: 40, fleetNodes: 20, fleetBudget: 2000,
	fleetCyclesPerS: 10, fleetRestartsPerS: 3,
	coldN: 120, coldNodes: 60, coldBudget: 2000, coldItersPerS: 3,
	cliRows: 3, cliCols: 4, cliRoundBudget: 2000, cliItersPerS: 3,
	soloEvery: 2,
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a -trace 0 run reports; every workload
// reports all of them. They are the ones that repeat within their bounds
// from one set of runs to the next on the reference box. Latencies move by
// up to a quarter between such sets there, with the shared host's speed,
// so they are per-layer path metrics (see README.md, Calibration record).
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"improvement_pct", "%"},
}

// members are the default portfolio's member families, as named in metric
// names; the three SA restarts count as one family.
var members = []string{"cp", "mip", "g1", "g2", "r2l", "sa"}

// memberKey maps a solver name ("CP(k=20)", "SA") to its family.
func memberKey(name string) string {
	name, _, _ = strings.Cut(name, "(")
	return strings.ToLower(name)
}

// shareLayers are the layers whose self-time share of the primary path a
// -trace 1 run reports. The cluster layer is timed by probes only (see
// runner.kmeans), so its work shows in prep's share.
var shareLayers = []string{"http", "serve", "wal", "measure", "cloud", "prep", "solver", "advisor"}

// spanMetrics are per-layer timings read off the traced phase's spans: their
// durations, or with self set their self times (see selfTimes).
var spanMetrics = []struct {
	name, span string
	q          float64
	self       bool
}{
	{"http.epoch_decode_ms_p50", "http.epoch", 0.5, true},
	{"http.advise_decode_ms_p50", "http.advise", 0.5, true},
	{"serve.append_epoch_ms_p50", "serve.append_epoch", 0.5, false},
	{"serve.append_epoch_ms_p99", "serve.append_epoch", 0.99, false},
	{"serve.advise_ms_p50", "serve.advise", 0.5, false},
	{"serve.queue_ms_p50", "serve.queue", 0.5, false},
	{"serve.queue_ms_p99", "serve.queue", 0.99, false},
	{"serve.run_ms_p50", "serve.run", 0.5, false},
	{"serve.open_ms_p50", "serve.open", 0.5, false},
	{"wal.append_ms_p50", "wal.append", 0.5, false},
	{"wal.fsync_ms_p50", "wal.fsync", 0.5, false},
	{"wal.fsync_ms_p99", "wal.fsync", 0.99, false},
	{"wal.compact_ms_p50", "wal.compact", 0.5, false},
	{"wal.replay_ms_p50", "wal.replay", 0.5, false},
	{"measure.publish_ms_p50", "measure.publish", 0.5, false},
	{"measure.publish_tail_ms_p50", "measure.publish_tail", 0.5, false},
	{"measure.first_epoch_ms_p50", "measure.first_epoch", 0.5, false},
	{"measure.stream_ms_p50", "measure.stream", 0.5, false},
	{"cloud.run_instances_ms_p50", "cloud.run_instances", 0.5, false},
	{"cluster.kmeans_ms_p50", "cluster.kmeans", 0.5, false},
	{"cluster.patch_rows_ms_p50", "cluster.patch_rows", 0.5, false},
	{"cluster.patch_pairs_ms_p50", "cluster.patch_pairs", 0.5, false},
	{"prep.new_problem_ms_p50", "prep.new_problem", 0.5, false},
	{"prep.rounded_ms_p50", "prep.rounded", 0.5, false},
	{"prep.cheapest_rows_ms_p50", "prep.cheapest_rows", 0.5, false},
	{"prep.offdiag_ms_p50", "prep.offdiag", 0.5, false},
	{"prep.evolve_ms_p50", "prep.evolve", 0.5, false},
	{"solver.portfolio_ms_p50", "solver.portfolio", 0.5, false},
}

// pathMetrics are the latencies of the user-facing paths each workload
// crosses, its headline path among them, from the untraced phase of a
// -trace 1 run. A path a workload does not cross reads 0.
var pathMetrics = []struct {
	name, sample string
	q            float64
}{
	{"path.epoch_ack_ms_p50", "path.epoch_ack_ms", 0.5},
	{"path.epoch_ack_ms_p99", "path.epoch_ack_ms", 0.99},
	{"path.advise_ms_p50", "path.advise_ms", 0.5},
	{"path.advise_ms_p99", "path.advise_ms", 0.99},
	{"path.first_advice_ms_p50", "path.first_advice_ms", 0.5},
	{"path.final_advice_ms_p50", "path.final_advice_ms", 0.5},
	{"path.restart_ready_ms_p50", "path.restart_ready_ms", 0.5},
}

// perLayerDefs lists every metric a -trace 1 run reports, in BENCHMARK.json
// order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, m := range pathMetrics {
		defs = append(defs, metricDef{m.name, "ms"})
	}
	defs = append(defs,
		metricDef{"path.epoch_capacity_per_s", "1/s"},
		metricDef{"http.request_bytes_p50", "bytes"},
	)
	for _, m := range spanMetrics {
		defs = append(defs, metricDef{m.name, "ms"})
	}
	defs = append(defs,
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.steals", "count"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"cache.evictions", "count"},
		metricDef{"cache.superseded", "count"},
		metricDef{"wal.syncs_per_append", "ratio"},
		metricDef{"wal.disk_bytes_per_epoch", "bytes"},
		metricDef{"cluster.kmeans_values", "count"},
		metricDef{"solver.nodes_per_advise", "count"},
	)
	for _, m := range members {
		defs = append(defs, metricDef{"solver.member." + m + ".ms_p50", "ms"}, metricDef{"solver.member." + m + ".wins", "count"})
	}
	defs = append(defs,
		metricDef{"advisor.round_ms_p50", "ms"},
		metricDef{"advisor.improved_ratio", "ratio"},
		metricDef{"runtime.gc_pause_ms_sum", "ms"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.alloc_mb_per_op", "MB"},
		metricDef{"loadgen.lag_ms_max", "ms"},
		metricDef{"trace.unattributed_pct", "%"},
		metricDef{"trace.overhead_pct", "%"},
	)
	for _, l := range shareLayers {
		defs = append(defs, metricDef{"share." + l + "_pct", "%"})
	}
	return defs
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *runner) endToEndMetrics() map[string]metric {
	p := r.phases[0]
	vals := map[string]float64{
		"setup_s":         r.setupS.median(),
		"peak_rss_mb":     p.peakMB,
		"improvement_pct": r.improvement.mean(),
	}
	r.note("set-ups: n=%d, advice: n=%d, headline latency: p50 %.4f ms of n=%d",
		len(r.setupS), len(r.improvement), p.get(primary).median(), len(p.get(primary)))
	return withUnits(endToEndDefs, vals)
}

// windowRate is the throughput of a loop that started at offset 0 and
// completed operations at the given offsets, in seconds. It cuts the
// completions into consecutive runs of per operations and returns the
// median of their rates, so a compaction or a collection slows one run and
// leaves the median alone. With fewer than two runs it is the plain rate.
func windowRate(done samples, per int) float64 {
	at := append(samples{0}, done...)
	sort.Float64s(at)
	n := len(done) / per
	if n < 2 {
		return ratio(float64(len(done)), at[len(at)-1])
	}
	rates := make(samples, n)
	for w := range rates {
		rates[w] = ratio(float64(per), at[(w+1)*per]-at[w*per])
	}
	return rates.median()
}

func (r *runner) perLayerMetrics() map[string]metric {
	plain, traced := r.phases[0], r.phases[1]
	tr := traced.tr
	vals := map[string]float64{}
	for _, m := range pathMetrics {
		s := plain.get(m.sample)
		vals[m.name] = s.quantile(m.q)
		if len(s) > 0 {
			r.note("%s: n=%d", m.name, len(s))
		}
	}
	vals["path.epoch_capacity_per_s"] = plain.gauge("path.epoch_capacity_per_s")
	vals["http.request_bytes_p50"] = traced.get("http.request_bytes").median()
	for _, m := range spanMetrics {
		s := tr.durations(m.span, m.self)
		vals[m.name] = s.quantile(m.q)
		if len(s) > 0 {
			r.note("%s: n=%d", m.name, len(s))
		}
	}
	for _, g := range []string{"serve.rejected", "serve.steals", "cache.evictions", "cache.superseded"} {
		vals[g] = traced.gauge(g)
	}
	vals["cache.hit_ratio"] = ratio(traced.gauge("cache.hits"), traced.gauge("cache.hits")+traced.gauge("cache.misses"))
	vals["wal.syncs_per_append"] = ratio(traced.gauge("wal.syncs"), traced.gauge("wal.appends"))
	vals["wal.disk_bytes_per_epoch"] = ratio(traced.gauge("wal.disk_bytes"), traced.gauge("wal.epochs"))
	vals["cluster.kmeans_values"] = traced.get("cluster.kmeans_values").median()
	vals["solver.nodes_per_advise"] = traced.get("solver.nodes").median()
	for _, m := range members {
		vals["solver.member."+m+".ms_p50"] = tr.durations("solver.member."+m, false).median()
		vals["solver.member."+m+".wins"] = traced.gauge("solver.wins." + m)
	}
	vals["advisor.round_ms_p50"] = traced.get("advisor.round_ms").median()
	vals["advisor.improved_ratio"] = ratio(traced.gauge("advisor.improved"), traced.gauge("advisor.rounds"))

	vals["runtime.gc_pause_ms_sum"] = float64(plain.gc1.pauseNs-plain.gc0.pauseNs) / 1e6
	vals["runtime.gc_cycles"] = float64(plain.gc1.cycles - plain.gc0.cycles)
	vals["runtime.alloc_mb_per_op"] = ratio(float64(plain.gc1.allocBytes-plain.gc0.allocBytes)/(1<<20), float64(plain.done))
	vals["loadgen.lag_ms_max"] = plain.gauge("loadgen.lag_ms_max")

	base := plain.get(primary).median()
	vals["trace.overhead_pct"] = 100 * ratio(traced.get(primary).median()-base, base)
	for _, b := range tr.breakdowns() {
		if b.Path != r.primaryPath() {
			continue
		}
		vals["trace.unattributed_pct"] = b.share(b.Unattributed)
		for _, l := range shareLayers {
			vals["share."+l+"_pct"] = b.share(b.LayerMS[l])
		}
	}
	return withUnits(perLayerDefs(), vals)
}

// primaryPath is the name of the path spans the primary latency times.
func (r *runner) primaryPath() string {
	switch r.opts.workload {
	case "ingest":
		return "path.epoch_ack"
	case "fleet":
		return "path.advise"
	case "cold-1000":
		return "path.first_advice"
	}
	return "path.final_advice"
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
