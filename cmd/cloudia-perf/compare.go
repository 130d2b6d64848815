package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runCompare judges a change against its parent from paired result files:
//
//	cloudia-perf compare [-bench BENCHMARK.json] <parent-dir> <change-dir>
//
// Each directory holds one file per run, named <workload>.<n>.<ext>, whose
// last line is the run's result; the k-th file of a workload on each side
// form a pair, so runs should alternate sides. For every metric and
// workload it prints each side's median and quartiles, the change's win
// fraction, and a verdict (see verdict) under the bounds BENCHMARK.json
// fixes. It exits 1 when a metric regressed or the failure rate rose, and 2
// when it cannot judge: a usage error, or a workload with fewer than ten
// pairs, which gets no verdicts.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: cloudia-perf compare [-bench BENCHMARK.json] <parent-dir> <change-dir>")
		return 2
	}
	var bf benchFile
	raw, err := os.ReadFile(*bench)
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	change, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	defs := map[string]benchMetric{}
	for _, m := range append(append([]benchMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
		defs[m.Name] = m
	}

	code := 0
	for wl := range change {
		if _, ok := parent[wl]; !ok {
			parent[wl] = nil
		}
	}
	fmt.Fprintf(stdout, "%-11s %-32s %-30s %-30s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range sortedKeys(parent) {
		ps, cs := parent[wl], change[wl]
		pairs := min(len(ps), len(cs))
		judged := pairs >= 10
		if !judged {
			// A workload with too few runs on either side, or none — a run
			// that crashed before writing its file — cannot pass.
			fmt.Fprintf(stdout, "%-11s NO VERDICT: %d parent and %d change runs; at least 10 pairs are needed\n", wl, len(ps), len(cs))
			code = max(code, 2)
		}
		ps, cs = ps[:pairs], cs[:pairs]
		if pf, cf := failRate(ps), failRate(cs); cf > pf {
			fmt.Fprintf(stdout, "%-11s FAILURES ROSE: %.4f%% of attempted operations failed, parent %.4f%%\n", wl, 100*cf, 100*pf)
			code = max(code, 1)
		}
		for _, name := range metricNames(ps) {
			d, ok := defs[name]
			if !ok {
				continue
			}
			pv, cv := values(ps, name), values(cs, name)
			v := "-"
			if judged {
				v = verdict(d, pv, cv)
			}
			if v == "regressed" {
				code = max(code, 1)
			}
			fmt.Fprintf(stdout, "%-11s %-32s %-30s %-30s %5.2f  %s\n", wl, name, quartileText(pv), quartileText(cv), winFraction(d, pv, cv), v)
		}
	}
	return code
}

// readResults reads every run's result line, grouped by workload in file
// name order.
func readResults(dir string) (map[string][]result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]result{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal([]byte(lastLine(raw)), &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", e.Name(), err)
		}
		wl, _, _ := strings.Cut(e.Name(), ".")
		out[wl] = append(out[wl], res)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func metricNames(rs []result) []string {
	seen := map[string]bool{}
	for _, r := range rs {
		for name := range r.Metrics {
			seen[name] = true
		}
	}
	return sortedKeys(seen)
}

func values(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func failRate(rs []result) float64 {
	var failed, attempted int64
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
		if !r.Correct {
			failed++
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// quartiles are the three cut points Python's statistics.quantiles(xs,
// n=4) returns (its default "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func quartileText(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// better reports whether a reads better than b under d's direction.
func better(d benchMetric, a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

// winFraction is the share of pairs the change reads better in; ties count
// for neither side.
func winFraction(d benchMetric, parent, change []float64) float64 {
	wins := 0
	for i := range parent {
		if better(d, change[i], parent[i]) {
			wins++
		}
	}
	return ratio(float64(wins), float64(len(parent)))
}

// verdict applies the rules: a gain needs at least nine tenths of the pairs
// and a median difference beyond the parent's interquartile range; a
// metric whose spread exceeds its bound is unresolved unless every change
// run reads better (or, for a regression, worse) than every parent run;
// otherwise a median worse by more than the bound is a regression.
// Per-layer metrics carry no bound: the pair rule alone makes them
// "improved", or, mirrored, "worse", and they read "-" otherwise.
func verdict(d benchMetric, parent, change []float64) string {
	if len(parent) == 0 {
		return "-"
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	beyond := math.Abs(cm-pm) > q3-q1
	if winFraction(d, parent, change) >= 0.9 && better(d, cm, pm) && beyond {
		return "improved"
	}
	if d.Bound == 0 {
		if winFraction(d, change, parent) >= 0.9 && better(d, pm, cm) && beyond {
			return "worse"
		}
		return "-"
	}
	worse := better(d, pm, cm) && math.Abs(cm-pm) > d.Bound*math.Abs(pm)
	if (q3 - q1) > d.Bound*math.Abs(pm) {
		switch {
		case separated(d, change, parent):
			return "no worse"
		case worse && separated(d, parent, change):
			return "regressed"
		}
		return "unresolved"
	}
	if worse {
		return "regressed"
	}
	return "no worse"
}

// separated reports whether every value of a reads better than every
// value of b.
func separated(d benchMetric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(d, x, y) {
				return false
			}
		}
	}
	return true
}
