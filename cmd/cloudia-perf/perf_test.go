package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readBench(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsQuick runs every workload at -quick scale, untraced and
// traced, and checks that every output passed its checks and that each run
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsQuick(t *testing.T) {
	bf := readBench(t)
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				out := t.TempDir()
				res, err := run(options{workload: wl, seed: 1, seconds: 0.3, trace: trace,
					dir: t.TempDir(), out: out, quick: true}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
					if _, err := os.Stat(filepath.Join(out, "trace-"+wl+".json")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s reads %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestFlags parses the double-dash command line BENCHMARK.json's command is
// run with, and rejects a bad trace level.
func TestFlags(t *testing.T) {
	var stderr bytes.Buffer
	if code := runMain([]string{"--workload", "nope", "--seed", "2", "--seconds", "1", "--trace", "0"}, io.Discard, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), `unknown workload "nope"`) {
		t.Errorf("unknown workload: exit %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := runMain([]string{"--workload", "ingest", "--trace", "2"}, io.Discard, &stderr); code != 2 {
		t.Errorf("trace 2: exit %d, stderr %q", code, stderr.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestWindowRate checks that a stall slows one window and leaves the
// closed-loop throughput alone.
func TestWindowRate(t *testing.T) {
	var done samples
	at := 0.0
	for i := 0; i < 1000; i++ {
		at += 0.01
		if i == 500 {
			at += 2 // a compaction
		}
		done = append(done, at)
	}
	if got := windowRate(done, 100); math.Abs(got-100) > 1e-6 {
		t.Errorf("windowRate = %v, want 100", got)
	}
	if got := windowRate(done[:3], 2); math.Abs(got-100) > 1e-6 {
		t.Errorf("windowRate under two windows = %v, want the plain rate 100", got)
	}
}

func TestVerdict(t *testing.T) {
	lat := benchMetric{Name: "path.advise_ms_p50", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster", steady, shift(steady, 0.8), "improved"},
		{"same", steady, steady, "no worse"},
		{"slightly slower", steady, shift(steady, 1.05), "no worse"},
		{"slower", steady, shift(steady, 1.2), "regressed"},
		{"spread wider than the bound", noisy, shift(noisy, 1.05), "unresolved"},
		{"per-layer metric", steady, steady, "-"},
		{"per-layer metric, slower in every pair", steady, shift(steady, 1.2), "worse"},
		{"per-layer metric, faster in every pair", steady, shift(steady, 0.8), "improved"},
	} {
		d := lat
		if strings.HasPrefix(c.name, "per-layer") {
			d.Bound = 0
		}
		if got := verdict(d, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompare drives the subcommand over result files: it flags a
// regression and a rise in failures, and refuses a verdict on fewer than
// ten pairs or on a workload one side lacks.
func TestCompare(t *testing.T) {
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	write := func(dir, wl string, k int, rss float64, failed int64) {
		res := result{Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]metric{
			"peak_rss_mb": {Value: rss, Unit: "MB"},
		}}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, fmt.Sprintf("%s.%02d.out", wl, k))
		if err := os.WriteFile(name, append([]byte("some output\n"), b...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compare := func(parent, change string) (int, string) {
		var out bytes.Buffer
		code := runCompare([]string{"-bench", bench, parent, change}, &out, io.Discard)
		return code, out.String()
	}

	parent, change := t.TempDir(), t.TempDir()
	for k := 0; k < 10; k++ {
		write(parent, "fleet", k, 100+float64(k%3), 0)
		write(change, "fleet", k, 130+float64(k%3), 0)
	}
	if code, out := compare(parent, change); code != 1 || !strings.Contains(out, "regressed") {
		t.Fatalf("30%% more memory: exit %d, output:\n%s", code, out)
	}
	write(change, "fleet", 0, 100, 5)
	if _, out := compare(parent, change); !strings.Contains(out, "FAILURES ROSE") {
		t.Fatalf("a rise in failures went unflagged:\n%s", out)
	}

	few, fewChange := t.TempDir(), t.TempDir()
	for k := 0; k < 9; k++ {
		write(few, "fleet", k, 100, 0)
		write(fewChange, "fleet", k, 130, 0)
	}
	if code, out := compare(few, fewChange); code != 2 || !strings.Contains(out, "NO VERDICT") ||
		strings.Contains(out, "regressed") || strings.Contains(out, "no worse") {
		t.Errorf("nine pairs: exit %d, output:\n%s", code, out)
	}

	same := t.TempDir()
	for k := 0; k < 10; k++ {
		write(same, "fleet", k, 100+float64(k%3), 0)
		write(parent, "ingest", k, 3, 0)
	}
	if code, out := compare(parent, same); code != 2 || !strings.Contains(out, "ingest      NO VERDICT: 10 parent and 0 change runs") {
		t.Errorf("a workload missing from the change: exit %d, output:\n%s", code, out)
	}
}
