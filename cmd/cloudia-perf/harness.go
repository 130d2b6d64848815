package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/graphio"
	"cloudia/internal/serve"
	"cloudia/internal/topology"
	"cloudia/internal/wal"
)

// compactEvery is the compaction period of every daemon the benchmark
// opens: the one under load, and the shadow traced phases replay on. It is
// `cloudia -listen`'s default, set here so that both kinds run one policy.
// The mirror WAL has none of its own: it compacts when its shadow did (see
// replayEpoch).
const compactEvery = 32

// openDaemon opens a daemon with the `cloudia -listen` defaults:
// wal.SyncAlways, 1 MiB segments, two shards, compaction every
// compactEvery epochs.
func openDaemon(dir string) (*serve.Daemon, error) {
	return serve.OpenDaemon(serve.DaemonConfig{Dir: dir, CompactEvery: compactEvery})
}

// harness is one serve.Daemon behind a loopback HTTP listener: the surface a
// remote client of `cloudia -listen` talks to.
type harness struct {
	dir    string
	d      *serve.Daemon
	srv    *http.Server
	url    string
	done   chan error
	closed bool
}

func openHarness(dir string) (*harness, error) {
	d, err := openDaemon(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	h := &harness{dir: dir, d: d, srv: &http.Server{Handler: d.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the listener after in-flight requests finish, then drains and
// closes the daemon (the SIGTERM path of `cloudia -listen`). Closing twice
// is a no-op.
func (h *harness) close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := h.d.Close(); err == nil {
		err = derr
	}
	return err
}

// client is the load generator's HTTP side: at most two connections to the
// daemon, so the load of both load goroutines arrives on its own connection.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}}
}

// httpError is a non-200 reply; refused requests (429, 503) are failures
// the benchmark counts, not outputs it checks.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// post sends body and returns the whole reply.
func (c *client) post(url string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &httpError{resp.StatusCode, string(bytes.TrimSpace(out))}
	}
	return out, nil
}

// postStream sends an advise request with "stream": true and returns the
// time the first NDJSON line arrived, every round line, and the final line.
func (c *client) postStream(url string, body []byte) (first time.Time, rounds []roundLine, final adviceReply, err error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return first, nil, final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		return first, nil, final, &httpError{resp.StatusCode, string(bytes.TrimSpace(out))}
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			var probe struct {
				Tenant string `json:"tenant"`
			}
			if err := json.Unmarshal(line, &probe); err != nil {
				return first, nil, final, fmt.Errorf("bad NDJSON line %q: %w", line, err)
			}
			if probe.Tenant != "" {
				err := json.Unmarshal(line, &final)
				return first, rounds, final, err
			}
			var r roundLine
			if err := json.Unmarshal(line, &r); err != nil {
				return first, nil, final, err
			}
			rounds = append(rounds, r)
		}
		if rerr == io.EOF {
			return first, nil, final, fmt.Errorf("advise stream ended without a final line")
		}
		if rerr != nil {
			return first, nil, final, rerr
		}
	}
}

// healthy polls GET /healthz until it answers 200.
func (c *client) healthy(url string) error {
	for i := 0; ; i++ {
		resp, err := c.hc.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if i == 1000 {
			return fmt.Errorf("daemon at %s never became healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Wire forms of the daemon's HTTP replies (internal/serve's http.go). The
// fields the checks read are pointers, so a reply that lacks one — a field
// renamed on the daemon's side — fails its check instead of decoding to 0.
type epochAck struct {
	Tenant      string  `json:"tenant"`
	Epoch       *int    `json:"epoch"`
	Fingerprint *string `json:"fingerprint"`
}

type adviceReply struct {
	Tenant      string   `json:"tenant"`
	Deployment  []int    `json:"deployment"`
	Cost        *float64 `json:"cost"`
	Winner      string   `json:"winner"`
	Rounds      *int     `json:"rounds"`
	CacheMisses *int     `json:"cache_misses"`
	Error       string   `json:"error"`
}

type roundLine struct {
	Round    int     `json:"round"`
	Cost     float64 `json:"cost"`
	Improved bool    `json:"improved"`
	Winner   string  `json:"winner"`
}

func fpHex(fp core.Fingerprint) string { return fmt.Sprintf("%016x", uint64(fp)) }

// checkAck verifies an epoch reply against the generator's expectation.
func checkAck(raw []byte, tenant string, epoch int, fp core.Fingerprint) error {
	var ack epochAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return fmt.Errorf("epoch reply: %w", err)
	}
	if ack.Epoch == nil || ack.Fingerprint == nil {
		return fmt.Errorf("epoch reply %s lacks the epoch or the fingerprint", raw)
	}
	if ack.Tenant != tenant || *ack.Epoch != epoch || *ack.Fingerprint != fpHex(fp) {
		return fmt.Errorf("epoch ack %s, want tenant %s epoch %d fingerprint %s", raw, tenant, epoch, fpHex(fp))
	}
	return nil
}

// checkAdvice verifies a final advice: a valid deployment of every graph
// node onto distinct instances, whose longest-link cost recomputed under
// the matrix the tenant posted equals the reported cost. It returns the
// improvement over the identity deployment in percent.
func checkAdvice(a adviceReply, g *core.Graph, m *core.CostMatrix) (float64, error) {
	if a.Error != "" {
		return 0, fmt.Errorf("advice error: %s", a.Error)
	}
	if a.Cost == nil || a.Rounds == nil || a.CacheMisses == nil {
		return 0, fmt.Errorf("advice for %s lacks its cost, round count or cache misses", a.Tenant)
	}
	dep := core.Deployment(a.Deployment)
	if len(dep) != g.NumNodes() {
		return 0, fmt.Errorf("advice places %d nodes, graph has %d", len(dep), g.NumNodes())
	}
	if err := dep.Validate(m.Size()); err != nil {
		return 0, err
	}
	if got := core.LongestLink(dep, g, m); got != *a.Cost {
		return 0, fmt.Errorf("advice reports cost %v, posted matrix gives %v", *a.Cost, got)
	}
	identity := core.LongestLink(core.Identity(g.NumNodes()), g, m)
	return 100 * (1 - *a.Cost/identity), nil
}

// The network and the applications are the same for every seed: one
// EC2-profile datacenter, a fixed sequence of allocations in it, and fixed
// communication graphs. The run's seed drives everything measured and
// decided on top of them — measurement samples and noise, which rows each
// epoch changes, client schedules, solver seeds. Letting the seed pick the
// network too made whole runs differ in how hard their inputs were, which
// dominated the spread between runs.
const (
	datacenterSeed = 1
	graphSeed      = 1
)

func ec2Datacenter() (*topology.Datacenter, error) {
	return topology.New(topology.EC2Profile(), datacenterSeed)
}

// ec2Matrix returns the ground-truth mean RTT matrix over the n instances
// of allocation number alloc from the datacenter at 50% occupancy.
func ec2Matrix(alloc int64, n int) (*core.CostMatrix, error) {
	dc, err := ec2Datacenter()
	if err != nil {
		return nil, err
	}
	prov, err := cloud.NewProvider(dc, 0.5, alloc)
	if err != nil {
		return nil, err
	}
	inst, err := prov.RunInstances(n)
	if err != nil {
		return nil, err
	}
	return cloud.MeanRTTMatrix(dc, inst), nil
}

// sparseGraph is the shape of the paper's solver experiments: a spanning
// path plus 4·nodes random extra edges.
func sparseGraph(nodes int) (*core.Graph, []byte, error) {
	rng := rand.New(rand.NewSource(graphSeed))
	g := core.NewGraph(nodes)
	for v := 0; v+1 < nodes; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			return nil, nil, err
		}
	}
	for k := 0; k < 4*nodes; k++ {
		x, y := rng.Intn(nodes), rng.Intn(nodes)
		if x > y {
			x, y = y, x
		}
		if x != y && !g.HasEdge(x, y) {
			if err := g.AddEdge(x, y); err != nil {
				return nil, nil, err
			}
		}
	}
	var buf bytes.Buffer
	if err := graphio.WriteGraph(&buf, g); err != nil {
		return nil, nil, err
	}
	return g, buf.Bytes(), nil
}

// noisyRow fills dst with row i of base, each link scaled by an independent
// factor in [1-spread, 1+spread].
func noisyRow(dst []float64, base *core.CostMatrix, i int, spread float64, rng *rand.Rand) {
	for j, v := range base.Row(i) {
		if j == i {
			dst[j] = 0
			continue
		}
		dst[j] = v * (1 + spread*(2*rng.Float64()-1))
	}
}

// epochBody encodes a POST /v1/epoch body. Rows are full row contents;
// tail rows, when tailPct is set, use the same row indices.
func epochBody(buf []byte, tenant string, n int, rows []int, vals [][]float64, tailPct float64, tail [][]float64) []byte {
	buf = append(buf, `{"tenant":`...)
	buf = strconv.AppendQuote(buf, tenant)
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = appendRows(append(buf, `,"rows":`...), rows, vals)
	if tailPct != 0 {
		buf = append(buf, `,"tail_pct":`...)
		buf = strconv.AppendFloat(buf, tailPct, 'g', -1, 64)
		buf = appendRows(append(buf, `,"tail_rows":`...), rows, tail)
	}
	return append(buf, '}')
}

func appendRows(buf []byte, rows []int, vals [][]float64) []byte {
	buf = append(buf, '[')
	for k, r := range rows {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"row":`...)
		buf = strconv.AppendInt(buf, int64(r), 10)
		buf = append(buf, `,"values":[`...)
		for j, v := range vals[k] {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, "]}"...)
	}
	return append(buf, ']')
}

// absent names, after a tenant's name, a tenant no daemon has: an advise
// for it is refused once the front end has decoded the request.
const absent = "-absent"

// adviseBody encodes a POST /v1/advise body for the default portfolio
// under a node budget, so advice is deterministic and its latency measures
// program speed rather than a wall-clock budget.
func adviseBody(tenant string, graph []byte, metric string, budget, seed int64, noWarm, stream bool) []byte {
	b, err := json.Marshal(map[string]any{"tenant": tenant, "graph": json.RawMessage(graph),
		"objective": "longest-link", "metric": metric, "budget_nodes": budget, "seed": seed,
		"no_warm_start": noWarm, "stream": stream})
	if err != nil {
		panic(err) // strings, numbers and a graph graphio wrote always encode
	}
	return b
}

// shadow is a traced phase's copy of the daemon under load. It is fed
// every epoch and advise the real one gets, through the Go API, so that its
// tenants' state follows the real ones'; its HTTP handler times the front
// end (see frontEnd).
type shadow struct {
	d       *serve.Daemon
	handler http.Handler
}

func openShadow(r *runner) (*shadow, error) {
	d, err := openDaemon(r.scratch("shadow"))
	if err != nil {
		return nil, err
	}
	r.teardowns = append(r.teardowns, d.Close)
	return &shadow{d: d, handler: d.Handler()}, nil
}

// frontEnd serves one POST on the shadow's HTTP handler with a body the
// daemon refuses right after the front end has decoded it — an epoch of
// matrix size 0, an advise for a tenant it lacks — so the call times the
// handler's own work on a body of the real one's size: JSON decoding, row
// conversion or graphio.ReadGraph, the error reply. It checks that the
// refusal is that one and not a decoding failure.
func (sh *shadow) frontEnd(path string, body []byte, status int, message string) error {
	rec := httptest.NewRecorder()
	sh.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if got := rec.Body.String(); rec.Code != status || !strings.Contains(got, message) {
		return fmt.Errorf("front end answered %s with %d %s, want %d and %q", path, rec.Code, strings.TrimSpace(got), status, message)
	}
	return nil
}

// seed posts a generator's current matrices to the shadow as one full
// epoch, so that its tenant holds what the real one holds.
func (sh *shadow) seed(tenant string, g *epochGen) error {
	mean, tail := g.matrices()
	rows := make([]wal.RowDelta, g.n)
	tails := make([]wal.RowDelta, g.n)
	for i := range rows {
		rows[i] = wal.RowDelta{Row: i, Values: mean.Row(i)}
		tails[i] = wal.RowDelta{Row: i, Values: tail.Row(i)}
	}
	_, fp, err := sh.d.AppendEpoch(tenant, g.n, rows, &serve.TailUpdate{Pct: tailPct, Rows: tails})
	if err == nil && fp != g.mean.Fingerprint() {
		err = fmt.Errorf("shadow tenant %s seeded with fingerprint %s, want %s", tenant, fpHex(fp), fpHex(g.mean.Fingerprint()))
	}
	return err
}

// compactions is how many times the shadow compacted tenant's log.
func (sh *shadow) compactions(tenant string) int64 {
	for _, st := range sh.d.Stats().Tenants {
		if st.Tenant == tenant {
			return st.WAL.Compactions
		}
	}
	return 0
}

// rowDeltas converts full row contents into the daemon's Go-API form.
func rowDeltas(rows []int, vals [][]float64) []wal.RowDelta {
	out := make([]wal.RowDelta, len(rows))
	for k, r := range rows {
		out[k] = wal.RowDelta{Row: r, Values: vals[k]}
	}
	return out
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
