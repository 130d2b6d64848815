package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cloudia/internal/cluster"
	"cloudia/internal/graphio"
)

// rawBody is a request body postJSON sends as is, for bodies that are not
// valid JSON.
type rawBody string

func postJSON(t *testing.T, client *http.Client, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if raw, ok := body.(rawBody); ok {
		buf.WriteString(string(raw))
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func graphPayload(t *testing.T, rows, cols int) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.WriteGraph(&buf, testGraph(t, rows, cols)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func epochPayload(t *testing.T, tenant string, n int) map[string]any {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	m := testMatrix(rng, n)
	rows := make([]map[string]any, n)
	for i := 0; i < n; i++ {
		rows[i] = map[string]any{"row": i, "values": m.Row(i)}
	}
	return map[string]any{"tenant": tenant, "n": n, "rows": rows}
}

func TestHTTPEpochAdviseStats(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/epoch", epochPayload(t, "acme", 8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch status %d", resp.StatusCode)
	}
	var er epochResponse
	decodeBody(t, resp, &er)
	if er.Epoch != 1 || len(er.Fingerprint) != 16 {
		t.Fatalf("epoch response %+v", er)
	}

	resp = postJSON(t, ts.Client(), ts.URL+"/v1/advise", map[string]any{
		"tenant": "acme", "graph": graphPayload(t, 2, 3),
		"solver": "cp", "cluster_k": 4, "budget_nodes": 5000, "seed": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise status %d", resp.StatusCode)
	}
	var ar adviseResponse
	decodeBody(t, resp, &ar)
	if ar.Err != "" || len(ar.Deployment) != 6 || ar.Rounds == 0 {
		t.Fatalf("advise response %+v", ar)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	decodeBody(t, resp, &st)
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "acme" || !st.Tenants[0].Advised {
		t.Fatalf("stats %+v", st)
	}
	if st.Server.Served != 1 {
		t.Fatalf("served = %d", st.Server.Served)
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPAdviseStream(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/epoch", epochPayload(t, "acme", 8))
	resp.Body.Close()

	resp = postJSON(t, ts.Client(), ts.URL+"/v1/advise", map[string]any{
		"tenant": "acme", "graph": graphPayload(t, 2, 3),
		"solver": "cp", "cluster_k": 4, "budget_nodes": 5000, "stream": true,
	})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want at least one round plus the advice", len(lines))
	}
	var round roundJSON
	if err := json.Unmarshal([]byte(lines[0]), &round); err != nil || round.Round != 1 {
		t.Fatalf("first stream line %q (err %v)", lines[0], err)
	}
	var final adviseResponse
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil || final.Err != "" || len(final.Deployment) != 6 {
		t.Fatalf("final stream line %q (err %v)", lines[len(lines)-1], err)
	}

	// Streaming against an unknown tenant delivers the error in-band.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/advise", map[string]any{
		"tenant": "ghost", "graph": graphPayload(t, 2, 3), "stream": true,
	})
	var inBand adviseResponse
	decodeBody(t, resp, &inBand)
	if !strings.Contains(inBand.Err, "unknown tenant") {
		t.Fatalf("in-band stream error %q", inBand.Err)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/epoch", epochPayload(t, "acme", 8))
	resp.Body.Close()

	const badEpoch = "serve: bad epoch request: "
	cases := []struct {
		name    string
		path    string
		body    any
		code    int
		errCode string
		prefix  string
	}{
		{"malformed epoch", "/v1/epoch", "not json", http.StatusBadRequest, "bad_request", badEpoch},
		{"invalid epoch", "/v1/epoch", map[string]any{"tenant": "acme", "n": 3}, http.StatusBadRequest, "bad_request", "serve: tenant"},
		{"truncated epoch", "/v1/epoch", rawBody(`{"tenant":"acme","n":8,"rows":[{"row":0,"values":[0,1`), http.StatusBadRequest, "bad_request", badEpoch},
		{"epoch n as string", "/v1/epoch", rawBody(`{"tenant":"acme","n":"8"}`), http.StatusBadRequest, "bad_request", badEpoch},
		{"epoch n as fraction", "/v1/epoch", rawBody(`{"tenant":"acme","n":8.5}`), http.StatusBadRequest, "bad_request", badEpoch},
		{"epoch leading zero", "/v1/epoch", rawBody(`{"tenant":"acme","n":08}`), http.StatusBadRequest, "bad_request", badEpoch},
		{"epoch bare decimal point", "/v1/epoch", rawBody(`{"tenant":"acme","n":1,"rows":[{"row":0,"values":[1.]}]}`), http.StatusBadRequest, "bad_request", badEpoch},
		{"epoch NaN", "/v1/epoch", rawBody(`{"tenant":"acme","n":1,"rows":[{"row":0,"values":[NaN]}]}`), http.StatusBadRequest, "bad_request", badEpoch},
		{"epoch Infinity", "/v1/epoch", rawBody(`{"tenant":"acme","n":1,"rows":[{"row":0,"values":[Infinity]}]}`), http.StatusBadRequest, "bad_request", badEpoch},
		{"epoch unterminated string", "/v1/epoch", rawBody(`{"tenant":"acme`), http.StatusBadRequest, "bad_request", badEpoch},
		{"epoch bare bracket", "/v1/epoch", rawBody(`[`), http.StatusBadRequest, "bad_request", badEpoch},
		{"malformed advise", "/v1/advise", "not json", http.StatusBadRequest, "bad_request", ""},
		{"advise without graph", "/v1/advise", map[string]any{"tenant": "acme"}, http.StatusBadRequest, "bad_request", ""},
		{"advise bad graph", "/v1/advise", map[string]any{"tenant": "acme", "graph": map[string]any{"bogus": 1}}, http.StatusBadRequest, "bad_request", ""},
		{"advise bad objective", "/v1/advise", map[string]any{
			"tenant": "acme", "graph": graphPayload(t, 2, 2), "objective": "shortest-selfie",
		}, http.StatusBadRequest, "bad_request", ""},
		{"advise bad metric", "/v1/advise", map[string]any{
			"tenant": "acme", "graph": graphPayload(t, 2, 2), "metric": "p42",
		}, http.StatusBadRequest, "bad_request", ""},
		{"advise unknown tenant", "/v1/advise", map[string]any{
			"tenant": "ghost", "graph": graphPayload(t, 2, 2),
		}, http.StatusNotFound, "unknown_tenant", ""},
		// A job that fails refuses the request; it is not a 200 carrying
		// an error.
		{"advise unknown solver", "/v1/advise", map[string]any{
			"tenant": "acme", "graph": graphPayload(t, 2, 2), "solver": "zz", "budget_nodes": 100,
		}, http.StatusBadRequest, "bad_request", "advisor: unknown solver"},
		{"advise graph over the instances", "/v1/advise", map[string]any{
			"tenant": "acme", "graph": graphPayload(t, 3, 3), "budget_nodes": 100,
		}, http.StatusBadRequest, "bad_request", ""},
		// The solver clock ignores a negative axis: such a budget bounds
		// nothing and would hold a solve slot forever.
		{"advise negative node budget", "/v1/advise", map[string]any{
			"tenant": "acme", "graph": graphPayload(t, 2, 2), "budget_nodes": -5,
		}, http.StatusBadRequest, "bad_request", "serve: job requires a bounded round budget"},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		var e errorJSON
		decodeBody(t, resp, &e)
		if e.Error.Message == "" {
			t.Errorf("%s: no error message", tc.name)
		}
		if e.Error.Code != tc.errCode {
			t.Errorf("%s: error code %q, want %q", tc.name, e.Error.Code, tc.errCode)
		}
		if !strings.HasPrefix(e.Error.Message, tc.prefix) {
			t.Errorf("%s: message %q, want prefix %q", tc.name, e.Error.Message, tc.prefix)
		}
	}

	// Transient admission rejections advertise a retry — in the Retry-After
	// header and as retry_after_ms in the structured body.
	decodeErr := func(rec *httptest.ResponseRecorder) errorBody {
		var e errorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("error body %q: %v", rec.Body.String(), err)
		}
		return e.Error
	}
	rec := httptest.NewRecorder()
	httpError(rec, fmt.Errorf("wrapped: %w", ErrBusy))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("ErrBusy mapped to %d (Retry-After %q)", rec.Code, rec.Header().Get("Retry-After"))
	}
	if e := decodeErr(rec); e.Code != "busy" || e.RetryAfterMS <= 0 {
		t.Fatalf("ErrBusy body = %+v", e)
	}
	rec = httptest.NewRecorder()
	httpError(rec, fmt.Errorf("wrapped: %w", ErrClosed))
	if e := decodeErr(rec); rec.Code != http.StatusServiceUnavailable || e.Code != "closed" || e.RetryAfterMS <= 0 {
		t.Fatalf("ErrClosed mapped to %d, body %+v", rec.Code, e)
	}
}

// TestHTTPBodyLimits checks the caps on what one request can make the
// daemon allocate: the matrix size an epoch may claim and the node count
// of an advise graph (400), and the body size of both POST endpoints (413,
// code too_large).
func TestHTTPBodyLimits(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	limit := maxBodyBytes
	defer func() { maxBodyBytes = limit }()
	maxBodyBytes = 4 << 10
	expect := func(name string, resp *http.Response, code int, errCode, message string) {
		t.Helper()
		var e errorJSON
		decodeBody(t, resp, &e)
		if resp.StatusCode != code || e.Error.Code != errCode || !strings.Contains(e.Error.Message, message) {
			t.Fatalf("%s: %d %+v, want %d %s containing %q", name, resp.StatusCode, e.Error, code, errCode, message)
		}
	}

	// Within the limits, an epoch and an advise go through.
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/epoch", epochPayload(t, "acme", 8))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small epoch status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/advise", map[string]any{
		"tenant": "acme", "graph": graphPayload(t, 2, 2), "solver": "cp", "budget_nodes": 100,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small advise status %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.Client(), ts.URL+"/v1/epoch", epochPayload(t, "acme", 32))
	expect("oversized epoch", resp, http.StatusRequestEntityTooLarge, "too_large", "serve: bad epoch request: ")
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/advise", map[string]any{
		"tenant": "acme", "graph": graphPayload(t, 30, 30),
	})
	expect("oversized advise", resp, http.StatusRequestEntityTooLarge, "too_large", "serve: bad advise request: ")

	// A one-row body claiming a 2^20-instance matrix, within the real body
	// limit, is refused before the 2^40-cell matrix it names is allocated.
	maxBodyBytes = limit
	const huge = 1 << 20
	row := strings.TrimSuffix(strings.Repeat("0,", huge), ",")
	body := rawBody(`{"tenant":"greedy","n":` + strconv.Itoa(huge) + `,"rows":[{"row":0,"values":[` + row + `]}]}`)
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/epoch", body)
	expect("n = 1<<20", resp, http.StatusBadRequest, "bad_request", "over the daemon's limit 4096")
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/epoch", rawBody(`{"tenant":"greedy","n":4097,"rows":[]}`))
	expect("n = maxEpochN+1", resp, http.StatusBadRequest, "bad_request", "over the daemon's limit 4096")
	if st := d.Stats(); len(st.Tenants) != 1 || st.Tenants[0].Tenant != "acme" {
		t.Fatalf("refused epochs left tenants behind: %+v, want only acme", st.Tenants)
	}

	// The 37-byte graph naming 2^36 nodes is refused before core.NewGraph
	// allocates its per-node tables (a fatal out-of-memory, which no
	// handler can recover), and so is one node past the epoch cap.
	for nodes, graph := range map[string]string{
		"2^36":        `{"nodes": 68719476736, "edges": []}`,
		"maxEpochN+1": `{"nodes": 4097, "edges": []}`,
	} {
		resp = postJSON(t, ts.Client(), ts.URL+"/v1/advise", rawBody(`{"tenant":"acme","graph":`+graph+`}`))
		expect("advise graph of "+nodes+" nodes", resp, http.StatusBadRequest, "bad_request", "over the limit of 4096")
	}
}

// TestHTTPStatsReportsCache checks that /v1/stats carries the shared
// cache's counters, resident bytes included, next to the advise counters,
// and the tenant-matrix snapshots it holds: each distinct content once,
// with the number of tenant matrices sharing it.
func TestHTTPStatsReportsCache(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	for _, tenant := range []string{"a", "b"} {
		postJSON(t, ts.Client(), ts.URL+"/v1/epoch", epochPayload(t, tenant, 8)).Body.Close()
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/advise", map[string]any{
			"tenant": tenant, "graph": graphPayload(t, 2, 3), "solver": "cp", "cluster_k": 4, "budget_nodes": 2000,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advise status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Server  map[string]json.RawMessage
		Tenants []struct {
			Tenant string
			WAL    map[string]int64
		}
	}
	decodeBody(t, resp, &st)
	if _, ok := st.Server["steals"]; ok {
		t.Error("/v1/stats server reports steals, which is always 0")
	}
	var cache map[string]int64
	if err := json.Unmarshal(st.Server["cache"], &cache); err != nil {
		t.Fatalf("/v1/stats server.cache: %v", err)
	}
	full := d.Stats()
	want := full.Server.Cache
	for name, v := range map[string]int64{
		"hits": want.Hits, "misses": want.Misses, "evictions": want.Evictions,
		"superseded": want.Superseded, "matrices": int64(want.Matrices), "bytes": want.Bytes,
		"snapshots": int64(want.Snapshots), "snapshot_bytes": want.SnapshotBytes,
		"snapshot_holders": int64(want.SnapshotHolders),
	} {
		got, ok := cache[name]
		if !ok || got != v {
			t.Errorf("/v1/stats cache %s = %d (present %v), want %d", name, got, ok, v)
		}
	}
	if len(st.Tenants) != len(full.Tenants) {
		t.Fatalf("/v1/stats has %d tenants, want %d", len(st.Tenants), len(full.Tenants))
	}
	for i, tn := range st.Tenants {
		got, ok := tn.WAL["appends"]
		if v := full.Tenants[i].WAL.Appends; !ok || got != v || v == 0 {
			t.Errorf("/v1/stats tenant %s wal.appends = %d (present %v), want %d > 0", tn.Tenant, got, ok, v)
		}
	}
	// Both tenants posted the same matrix: one set, built once, read twice,
	// and one snapshot of the 8 × 8 matrix that both tenants hold.
	if want.Matrices != 1 || want.Hits < 1 || want.Bytes <= 0 {
		t.Fatalf("cache stats %+v: want one shared set with a hit and its bytes", want)
	}
	if want.Snapshots != 1 || want.SnapshotHolders != 2 || want.SnapshotBytes != 8*8*8 {
		t.Fatalf("cache stats %+v: want one snapshot of 512 bytes held by both tenants", want)
	}
}

// The cache holds nothing but rounded sets: after a clustered MIP advise
// and a G1 advise over one posted matrix, its bytes are the k = 20 set's
// alone. MIP builds its float64 matrix per solve and G1 its rows, so
// neither lands in the cache.
func TestHTTPCacheHoldsOnlyRoundedSets(t *testing.T) {
	d := openDaemon(t, DaemonConfig{Dir: t.TempDir(), Workers: 1})
	defer d.Close()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	const n = 8
	postJSON(t, ts.Client(), ts.URL+"/v1/epoch", epochPayload(t, "acme", n)).Body.Close()
	for _, req := range []map[string]any{
		{"solver": "mip", "cluster_k": 20},
		{"solver": "g1"},
	} {
		req["tenant"], req["graph"], req["budget_nodes"] = "acme", graphPayload(t, 2, 3), 2000
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/advise", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v advise status %d", req["solver"], resp.StatusCode)
		}
		resp.Body.Close()
	}
	set, err := cluster.Round(testMatrix(rand.New(rand.NewSource(71)), n), 20)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats().Server.Cache; st.Matrices != 1 || st.Bytes != set.Bytes() {
		t.Fatalf("cache holds %d matrices, %d bytes; want 1 and the k=20 set's %d", st.Matrices, st.Bytes, set.Bytes())
	}
}
