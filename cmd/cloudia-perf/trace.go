package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds. A path span is one operation a user waits on, timed at the
// public surface (an HTTP round trip, a StreamingAdvise call). Replay spans
// are calls into single layers' public functions that redo the path's work
// right after the path returned, on the benchmark's own state: a shadow
// daemon opened beside the one under load, each tenant's mirror matrices
// and WAL, a mirror Problem — the daemon hides its sub-steps, so they are
// timed by replaying the same inputs. Probe spans measure a layer on the
// side (solo portfolio members, WAL replay of a copied directory) and are
// not part of any breakdown.
const (
	kindPath   = "path"
	kindReplay = "replay"
	kindProbe  = "probe"
)

// span is one timed call. Spans of one operation share Req; Parent is the
// ID of the span whose work this one replays or sub-divides (0 for roots).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s *span) ms() float64 { return (s.EndUS - s.StartUS) / 1000 }

// layer is the module a span's name belongs to ("wal" for "wal.fsync").
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0   time.Time
	reqs atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq allocates the request id an operation's spans share.
func (t *tracer) newReq() int64 { return t.reqs.Add(1) }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// add records a finished span and returns its ID.
func (t *tracer) add(req int64, parent int, name, kind string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Kind: kind,
		StartUS: t.us(start), EndUS: t.us(end)})
	return id
}

// begin opens a span whose children are recorded before it ends; end
// closes it.
func (t *tracer) begin(req int64, parent int, name, kind string) int {
	now := time.Now()
	return t.add(req, parent, name, kind, now, now)
}

func (t *tracer) end(id int) {
	now := t.us(time.Now())
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// replay times fn as a replay span.
func (t *tracer) replay(req int64, parent int, name string, fn func()) int {
	start := time.Now()
	fn()
	return t.add(req, parent, name, kindReplay, start, time.Now())
}

// probe times fn as a probe span.
func (t *tracer) probe(req int64, parent int, name string, fn func()) int {
	start := time.Now()
	fn()
	return t.add(req, parent, name, kindProbe, start, time.Now())
}

// durations returns, in ms, the duration of every span with the given
// name, or with self set its self time.
func (t *tracer) durations(name string, self bool) samples {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	var selfMS []float64
	if self {
		selfMS = selfTimes(spans)
	}
	var out samples
	for i := range spans {
		switch {
		case spans[i].Name != name:
		case self:
			out = append(out, selfMS[i])
		default:
			out = append(out, spans[i].ms())
		}
	}
	return out
}

// selfTimes returns every span's self time in ms: its duration minus the
// durations of its non-probe children, floored at zero. Replay children
// run after their parent rather than inside its interval, so their cover
// is counted by duration; children that do run inside (a restart's
// OpenDaemon) count the same way, since siblings never overlap.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i := range spans {
		self[i] = spans[i].ms()
	}
	for i := range spans {
		if p := spans[i].Parent; p > 0 && spans[i].Kind != kindProbe {
			self[p-1] -= spans[i].ms()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// breakdown is one path's duration split over the layers its replay spans
// belong to; what no layer covers is Unattributed.
type breakdown struct {
	Path         string             `json:"path"`
	Count        int                `json:"count"`
	TotalMS      float64            `json:"total_ms"`
	LayerMS      map[string]float64 `json:"layer_self_ms"`
	Unattributed float64            `json:"unattributed_ms"`
}

func (b breakdown) share(ms float64) float64 {
	if b.TotalMS == 0 {
		return 0
	}
	return 100 * ms / b.TotalMS
}

// breakdowns groups path spans by name and attributes the self time of
// every replay span below them to its layer.
func (t *tracer) breakdowns() []breakdown {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	root := make([]int, len(spans)) // index of the path span each span hangs under, or -1
	for i := range spans {
		root[i] = -1
		if spans[i].Kind == kindPath {
			root[i] = i
		} else if p := spans[i].Parent; p > 0 && spans[i].Kind == kindReplay {
			root[i] = root[p-1] // parents are always recorded first
		}
	}
	byPath := map[string]*breakdown{}
	var order []string
	for i := range spans {
		r := root[i]
		if r < 0 {
			continue
		}
		name := spans[r].Name
		b, ok := byPath[name]
		if !ok {
			b = &breakdown{Path: name, LayerMS: map[string]float64{}}
			byPath[name] = b
			order = append(order, name)
		}
		if r == i {
			b.Count++
			b.TotalMS += spans[i].ms()
			b.Unattributed += self[i]
			continue
		}
		b.LayerMS[spans[i].layer()] += self[i]
	}
	sort.Strings(order)
	out := make([]breakdown, len(order))
	for i, name := range order {
		out[i] = *byPath[name]
	}
	return out
}

// printBreakdowns writes each path's layer self times, largest first.
func printBreakdowns(w io.Writer, bds []breakdown) {
	for _, b := range bds {
		fmt.Fprintf(w, "breakdown %s: n=%d, %.1f ms total\n", b.Path, b.Count, b.TotalMS)
		layers := make([]string, 0, len(b.LayerMS))
		for l := range b.LayerMS {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool {
			if b.LayerMS[layers[i]] != b.LayerMS[layers[j]] {
				return b.LayerMS[layers[i]] > b.LayerMS[layers[j]]
			}
			return layers[i] < layers[j]
		})
		for _, l := range layers {
			fmt.Fprintf(w, "  %-12s self %10.1f ms  %5.1f%%\n", l, b.LayerMS[l], b.share(b.LayerMS[l]))
		}
		fmt.Fprintf(w, "  %-12s      %10.1f ms  %5.1f%%\n", "unattributed", b.Unattributed, b.share(b.Unattributed))
	}
}

// write stores the spans and breakdowns as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	doc := struct {
		Workload   string      `json:"workload"`
		Seed       int64       `json:"seed"`
		Spans      []span      `json:"spans"`
		Breakdowns []breakdown `json:"breakdowns"`
	}{Workload: workload, Seed: seed, Spans: t.spans}
	t.mu.Unlock()
	doc.Breakdowns = t.breakdowns()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
