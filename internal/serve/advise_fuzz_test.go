package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/graphio"
	"cloudia/internal/wal"
)

// fuzzInstances is the size of the fuzzed daemon's one tenant.
const fuzzInstances = 6

// FuzzAdviseRequest posts arbitrary bodies to POST /v1/advise on a daemon
// holding one 6-instance tenant "t" with mean and p99 tail rows. Whatever
// the body, the handler must not panic, must answer a status the front end
// documents, and must leave the daemon healthy; every 200 reply must carry
// a deployment of the posted graph on the tenant's instances. A streamed
// reply ends in that deployment or in an in-band error, the stream's error
// channel (TestHTTPAdviseStream). Bodies asking for long solves are
// skipped: the property is about decoding, not solve time.
func FuzzAdviseRequest(f *testing.F) {
	d, err := OpenDaemon(DaemonConfig{Dir: f.TempDir(), Workers: 1, WAL: wal.Options{Sync: wal.SyncNone}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Close() })
	m := testMatrix(rand.New(rand.NewSource(61)), fuzzInstances)
	if _, _, err := d.AppendEpoch("t", fuzzInstances, fullRows(m), &TailUpdate{Pct: 99, Rows: tailRowsOf(m)}); err != nil {
		f.Fatal(err)
	}
	h := d.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		// Decode the fields that size a solve the way the handler does (its
		// decoder also stops after the first JSON value). A body that fails
		// here fails the handler's decode too.
		var probe struct {
			Graph       json.RawMessage `json:"graph"`
			BudgetMS    float64         `json:"budget_ms"`
			BudgetNodes int64           `json:"budget_nodes"`
			DeadlineMS  float64         `json:"deadline_ms"`
			Stream      bool            `json:"stream"`
		}
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&probe) == nil
		if decoded && (probe.BudgetNodes > 20_000 || probe.BudgetMS > 50 || probe.DeadlineMS > 50) {
			t.Skip("long solve")
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var e errorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" {
				t.Fatalf("status %d with body %q, want a structured error", rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if rec.Code == http.StatusOK {
			checkAdviseReply(t, body, probe.Graph, probe.Stream, rec.Body.Bytes())
		}

		health := httptest.NewRecorder()
		h.ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if health.Code != http.StatusOK {
			t.Fatalf("/healthz answered %d after body %q", health.Code, body)
		}
	})
}

// checkAdviseReply requires a 200 advise reply to carry a deployment of the
// posted graph on fuzzInstances instances; a stream may instead end in an
// in-band error.
func checkAdviseReply(t *testing.T, body []byte, graph json.RawMessage, stream bool, reply []byte) {
	t.Helper()
	final := reply
	if stream {
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(reply))
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		final = last
	}
	var resp adviseResponse
	if err := json.Unmarshal(final, &resp); err != nil {
		t.Fatalf("200 reply %q does not end in an advise response: %v", reply, err)
	}
	if stream && resp.Err != "" && resp.Deployment == nil {
		return
	}
	g, err := graphio.ReadGraph(bytes.NewReader(graph), maxEpochN)
	if err != nil {
		t.Fatalf("200 reply for body %q whose graph does not decode: %v", body, err)
	}
	dep := core.Deployment(resp.Deployment)
	if resp.Err != "" || len(dep) != g.NumNodes() || dep.Validate(fuzzInstances) != nil {
		t.Fatalf("200 reply %q for body %q: want a deployment of %d nodes on %d instances",
			reply, body, g.NumNodes(), fuzzInstances)
	}
}
