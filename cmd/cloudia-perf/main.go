// Command cloudia-perf is cloudia's end-to-end benchmark. It drives the
// real public surfaces — serve.Daemon.Handler() over a loopback listener and
// advisor.StreamingAdvise in-process — through four workloads, checks every
// output, and prints named metrics, the last line of its output being one
// JSON object:
//
//	cloudia-perf -workload ingest -seed 1 -seconds 15 -trace 0
//	cloudia-perf -all -trace 1 -out traces/
//	cloudia-perf compare parent-results/ change-results/
//
// A run does a fixed amount of work, set by -seconds: every workload's
// operation counts are so many per second of it, sized so that a run
// measures for about -seconds on the reference box (README.md,
// Environment). With -trace 0 it reports the end-to-end metrics; with
// -trace 1 it runs the same work untraced, then a sixth of it traced, and
// reports the per-layer metrics. See README.md for the workloads, the metrics and
// their bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	out      string
	quick    bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runner) error{
	"ingest":     runIngest,
	"fleet":      runFleet,
	"cold-1000":  runCold,
	"cli-stream": runCLIStream,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cloudia-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	all := fs.Bool("all", false, "run every workload, each in its own child process")
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed all inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 15, "sizes the fixed work of the measured phase: about this many seconds on the reference box")
	fs.IntVar(&trace, "trace", 0, "1 runs the work untraced, then a sixth of it traced, and reports per-layer metrics")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory for WAL directories")
	fs.StringVar(&o.out, "out", ".bench_build", "directory trace-<workload>.json is written to")
	fs.BoolVar(&o.quick, "quick", false, "small inputs, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "cloudia-perf: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if *all {
		return runAll(o, stdout, stderr)
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "cloudia-perf: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "cloudia-perf: -seconds must be positive\n")
		return 2
	}
	res, err := run(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "cloudia-perf: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "cloudia-perf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll re-executes the binary once per workload, so peak RSS and GC state
// never leak from one workload into the next. It passes each child's output
// on, its result line prefixed by the workload.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cloudia-perf: %v\n", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	code := 0
	for _, name := range workloadNames() {
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-dir", o.dir, "-out", o.out}
		if o.quick {
			args = append(args, "-quick")
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			code = 1
		}
		body := strings.TrimSpace(out.String())
		head, last := "", body
		if i := strings.LastIndexByte(body, '\n'); i >= 0 {
			head, last = body[:i+1], body[i+1:]
		}
		fmt.Fprintf(stdout, "%s%s %s\n", head, name, last)
	}
	return code
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one workload run: its options, set-up timings, phases and
// op accounting.
type runner struct {
	opts   options
	sz     sizes
	log    io.Writer
	root   string // this run's scratch directory
	dirSeq int

	setupS    samples
	teardowns []func() error
	phases    []*phase

	attempted, failed atomic.Int64
	mu                sync.Mutex
	wrong             []string // outputs that failed a check
	improvement       samples  // improvement_pct of every checked advice
}

// phase is one measured pass over the workload. A -trace 0 run has one
// untraced phase sized for -seconds. A -trace 1 run has the same untraced
// phase, whose path latencies it reports, then a traced one sized for a
// sixth of -seconds: replaying every operation makes a traced operation
// cost three to four untraced ones.
type phase struct {
	scale float64 // the seconds of work the phase's operation counts are sized for
	tr    *tracer // nil when untraced

	mu      sync.Mutex
	samples map[string]samples
	gauges  map[string]float64
	done    int64 // operations accounted
	gc0     gcSnapshot
	gc1     gcSnapshot
	peakMB  float64 // the process's peak RSS when the phase ended
}

func (p *phase) add(name string, v float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

func (p *phase) set(name string, v float64) {
	p.mu.Lock()
	p.gauges[name] = v
	p.mu.Unlock()
}

// count adds d to a gauge and returns its new value.
func (p *phase) count(name string, d float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gauges[name] += d
	return p.gauges[name]
}

func (p *phase) get(name string) samples {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples[name]
}

func (p *phase) gauge(name string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gauges[name]
}

// ops is the phase's count of an operation the workload does perSecond
// times per second of work: the same on every commit, and at least one.
func (p *phase) ops(perSecond float64) int {
	return max(1, int(math.Round(perSecond*p.scale)))
}

// primary names the latency samples of the workload's headline path — the
// epoch ack (ingest), the advise (fleet), the first advice after a cold
// epoch (cold-1000), the whole StreamingAdvise call (cli-stream) — which
// trace.overhead_pct and the share.* breakdown are taken on.
const primary = "primary_ms"

func run(o options, log io.Writer) (*result, error) {
	r := &runner{opts: o, sz: fullSizes, log: log}
	if o.quick {
		r.sz = quickSizes
	}
	r.root = filepath.Join(o.dir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(r.root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.root)

	if o.trace {
		r.phases = []*phase{newPhase(o.seconds, nil), newPhase(o.seconds/6, newTracer())}
	} else {
		r.phases = []*phase{newPhase(o.seconds, nil)}
	}
	err := workloads[o.workload](r)
	for i := len(r.teardowns) - 1; i >= 0; i-- {
		if terr := r.teardowns[i](); err == nil && terr != nil {
			err = terr
		}
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: len(r.wrong) == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load()}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	for i, w := range r.wrong {
		if i == 10 {
			fmt.Fprintf(log, "... %d more failed checks\n", len(r.wrong)-10)
			break
		}
		fmt.Fprintf(log, "check failed: %s\n", w)
	}
	if o.trace {
		tr := r.phases[1].tr
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.out, "trace-"+o.workload+".json")
		if err := tr.write(path, o.workload, o.seed); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
		printBreakdowns(log, tr.breakdowns())
		res.Metrics = r.perLayerMetrics()
	} else {
		res.Metrics = r.endToEndMetrics()
	}
	printMetrics(log, res.Metrics)
	return res, nil
}

func newPhase(scale float64, tr *tracer) *phase {
	return &phase{scale: scale, tr: tr, samples: map[string]samples{}, gauges: map[string]float64{}}
}

// scratch returns a fresh directory under the run's scratch root.
func (r *runner) scratch(name string) string {
	r.mu.Lock()
	r.dirSeq++
	seq := r.dirSeq
	r.mu.Unlock()
	return filepath.Join(r.root, fmt.Sprintf("%s-%d", name, seq))
}

// setup runs fn, timing each repetition, keeps the last repetition's state,
// and restarts the peak RSS there, so that peak_rss_mb is the measured
// phases' own. The workload generates and encodes its inputs once, before;
// every repetition has the program build the whole starting state from
// them — open a daemon, post the first epochs — so work moved into set-up
// shows in setup_s. Earlier repetitions are torn down untimed. fn returns
// the teardown of whatever it acquired, also when it fails.
//
// A set-up repeats at least sz.setupReps times and until the repetitions
// add up to sz.setupMinS, so that a quick one is not one scheduling hiccup.
func (r *runner) setup(fn func() (teardown func() error, err error)) error {
	total := 0.0
	for rep := 0; rep < r.sz.setupReps || (total < r.sz.setupMinS && rep < 10_000); rep++ {
		if rep > 0 {
			last := len(r.teardowns) - 1
			td := r.teardowns[last]
			r.teardowns = r.teardowns[:last]
			if err := td(); err != nil {
				return err
			}
		}
		start := time.Now()
		td, err := fn()
		if td != nil {
			r.teardowns = append(r.teardowns, td)
		}
		if err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		total += r.setupS[rep]
	}
	return resetPeakRSS()
}

// op accounts one operation of phase p, or of none when p is nil; a non-nil
// err counts it failed. An HTTP error status is a refusal the result
// reports; any other error — a transport failure or an output that failed
// its check — also fails the run.
func (r *runner) op(p *phase, err error) {
	r.attempted.Add(1)
	if p != nil {
		p.mu.Lock()
		p.done++
		p.mu.Unlock()
	}
	if err != nil {
		r.failed.Add(1)
		var he *httpError
		if !errors.As(err, &he) {
			r.wrongf("%v", err)
		}
	}
}

// addImprovement records a checked advice's improvement over the identity
// deployment, in percent.
func (r *runner) addImprovement(pct float64) {
	r.mu.Lock()
	r.improvement = append(r.improvement, pct)
	r.mu.Unlock()
}

// wrongf records an output that failed a check.
func (r *runner) wrongf(format string, args ...any) {
	r.mu.Lock()
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// note writes one line of human-readable detail, such as a sample count.
func (r *runner) note(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// start and stop bracket a phase's runtime counters. The peak RSS is read
// at the end of the phase, before checks that run after it, such as
// ingest's reopen, add their own memory.
func (p *phase) start() time.Time {
	p.gc0 = readGC()
	return time.Now()
}

func (p *phase) stop() {
	p.gc1 = readGC()
	p.peakMB = peakRSSMB()
}

// printMetrics writes the metrics one per line for a human reader.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		fmt.Fprintf(bw, "%-36s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
	bw.Flush()
}
