package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/graphio"
	"cloudia/internal/solver"
	"cloudia/internal/wal"
)

// HTTP/JSON front end over the Daemon: a thin, stateless translation layer
// — all durable state and all scheduling live behind Daemon's Go API.
//
//	POST /v1/epoch    {"tenant","n","rows":[{"row","values"}],
//	                  "tail_pct","tail_rows"}
//	POST /v1/advise   {"tenant","graph",...} — add "stream":true for
//	                  one JSON line per solve round before the final advice
//	GET  /v1/stats    daemon + per-tenant counters
//	GET  /healthz     liveness
//
// An epoch body is decoded in one streaming pass (decodeEpoch) straight
// into row deltas, never buffered whole. It takes keys in any order, with
// encoding/json's rules: case-insensitive keys, the last duplicate wins,
// unknown members are ignored. Syntax and type errors answer 400 naming
// the byte offset; n, rows and values are checked afterwards, by
// AppendEpoch. Both POST bodies are capped at maxBodyBytes (413, code
// "too_large"), and both an epoch's n and an advise graph's node count at
// maxEpochN (400). The body cap holds one dense epoch of about 1,850
// instances (about 1,300 with tail rows), at ~19 bytes per value; a larger
// matrix is posted as several epochs, each carrying a subset of its rows.
//
// Transient admission rejections (ErrBusy, ErrOverBudget) map to 429 with
// a Retry-After hint, so HTTP clients inherit the same retry-later
// contract the Go API documents.

// Handler returns the daemon's HTTP front end.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/epoch", d.handleEpoch)
	mux.HandleFunc("POST /v1/advise", d.handleAdvise)
	mux.HandleFunc("GET /v1/stats", d.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// maxBodyBytes caps a POST body. It bounds what one request can make the
// decoders allocate; a var only so tests can lower it.
var maxBodyBytes int64 = 64 << 20

type epochResponse struct {
	Tenant      string `json:"tenant"`
	Epoch       int    `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
}

func (d *Daemon) handleEpoch(w http.ResponseWriter, r *http.Request) {
	req, err := decodeEpoch(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, fmt.Errorf("serve: bad epoch request: %w", err))
		return
	}
	var tail *TailUpdate
	if req.TailPct != 0 || len(req.TailRows) > 0 {
		tail = &TailUpdate{Pct: req.TailPct, Rows: req.TailRows}
	}
	epoch, fp, err := d.AppendEpoch(req.Tenant, req.N, req.Rows, tail)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, epochResponse{Tenant: req.Tenant, Epoch: epoch, Fingerprint: fmt.Sprintf("%016x", uint64(fp))})
}

type adviseRequestJSON struct {
	Tenant string          `json:"tenant"`
	Graph  json.RawMessage `json:"graph"`
	// Objective, metric, and no_mean_tie_break are the wire form of
	// advisor.ObjectiveSpec; the strings are cast into the spec and
	// validated there, not here. Empty objective defaults to longest-link,
	// empty metric to mean. metric "p95"/"p99" searches the tenant's
	// posted tail matrix, tie-breaking on the mean.
	Objective      string  `json:"objective"`
	Metric         string  `json:"metric"`
	NoMeanTieBreak bool    `json:"no_mean_tie_break"`
	Solver         string  `json:"solver"`
	ClusterK       int     `json:"cluster_k"`
	BudgetMS       float64 `json:"budget_ms"`
	BudgetNodes    int64   `json:"budget_nodes"`
	Seed           int64   `json:"seed"`
	DeadlineMS     float64 `json:"deadline_ms"`
	NoWarmStart    bool    `json:"no_warm_start"`
	Stream         bool    `json:"stream"`
}

type roundJSON struct {
	Round    int     `json:"round"`
	Epoch    int     `json:"epoch"`
	Cost     float64 `json:"cost"`
	Improved bool    `json:"improved"`
	Winner   string  `json:"winner,omitempty"`
}

type adviseResponse struct {
	Tenant      string  `json:"tenant"`
	Deployment  []int   `json:"deployment"`
	Cost        float64 `json:"cost"`
	Winner      string  `json:"winner,omitempty"`
	Rounds      int     `json:"rounds"`
	Interrupted bool    `json:"interrupted"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	Err         string  `json:"error,omitempty"`
}

func (d *Daemon) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var jr adviseRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&jr); err != nil {
		httpError(w, fmt.Errorf("serve: bad advise request: %w", err))
		return
	}
	if len(jr.Graph) == 0 {
		httpError(w, fmt.Errorf("serve: advise request without a graph"))
		return
	}
	// A deployment never has more nodes than the tenant has instances, and
	// epochs cap those at maxEpochN.
	g, err := graphio.ReadGraph(bytes.NewReader(jr.Graph), maxEpochN)
	if err != nil {
		httpError(w, fmt.Errorf("serve: advise graph: %w", err))
		return
	}
	// Cast the raw strings into the spec and let its Validate (run by
	// Submit) be the single authority on objective/metric combinations —
	// no HTTP-side switch duplicating it. Only the empty-objective default
	// is resolved here.
	spec := advisor.ObjectiveSpec{
		Objective:      solver.Objective(jr.Objective),
		Metric:         advisor.Metric(jr.Metric),
		NoMeanTieBreak: jr.NoMeanTieBreak,
	}
	if spec.Objective == "" {
		spec.Objective = solver.LongestLink
	}
	req := AdviseRequest{
		Tenant:        jr.Tenant,
		Graph:         g,
		ObjectiveSpec: spec,
		SolverName:    jr.Solver,
		ClusterK:      jr.ClusterK,
		RoundBudget:   solver.Budget{Time: msToDuration(jr.BudgetMS), Nodes: jr.BudgetNodes},
		Seed:          jr.Seed,
		Timeout:       msToDuration(jr.DeadlineMS),
		NoWarmStart:   jr.NoWarmStart,
	}

	var flush func()
	if jr.Stream {
		// One JSON line per round, flushed as the solve produces it, then
		// the final advice as the last line. OnRound runs on the worker
		// goroutine, but strictly before Advise returns, so the writes
		// never interleave with the final one.
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		if f, ok := w.(http.Flusher); ok {
			flush = f.Flush
		}
		round := 0
		req.OnRound = func(r advisor.Round) {
			round++
			enc.Encode(roundJSON{Round: round, Epoch: r.Epoch, Cost: r.Cost, Improved: r.Improved, Winner: r.Winner})
			if flush != nil {
				flush()
			}
		}
	}

	res, err := d.Advise(req)
	if err != nil {
		if jr.Stream {
			// Headers are potentially gone; deliver the error in-band.
			json.NewEncoder(w).Encode(adviseResponse{Tenant: jr.Tenant, Err: err.Error()})
			return
		}
		httpError(w, err)
		return
	}
	resp := adviseResponse{Tenant: jr.Tenant}
	if res.Err != nil {
		resp.Err = res.Err.Error()
	} else {
		resp.Deployment = res.Outcome.Deployment
		resp.Cost = res.Outcome.Cost
		resp.Winner = outcomeWinner(res.Outcome)
		resp.Rounds = len(res.Outcome.Rounds)
		resp.Interrupted = res.Outcome.Interrupted
	}
	resp.CacheHits, resp.CacheMisses = res.CacheHits, res.CacheMisses
	if jr.Stream {
		json.NewEncoder(w).Encode(resp)
		if flush != nil {
			flush()
		}
		return
	}
	writeJSON(w, resp)
}

type tenantStatusJSON struct {
	Tenant      string    `json:"tenant"`
	Epoch       int       `json:"epoch"`
	Fingerprint string    `json:"fingerprint"`
	Advised     bool      `json:"advised"`
	WAL         wal.Stats `json:"wal"`
}

type statsResponse struct {
	Server  Stats              `json:"server"`
	Tenants []tenantStatusJSON `json:"tenants"`
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	st := d.Stats()
	resp := statsResponse{Server: st.Server, Tenants: []tenantStatusJSON{}}
	for _, tn := range st.Tenants {
		resp.Tenants = append(resp.Tenants, tenantStatusJSON{
			Tenant:      tn.Tenant,
			Epoch:       tn.Epoch,
			Fingerprint: fmt.Sprintf("%016x", uint64(tn.Fingerprint)),
			Advised:     tn.Advised,
			WAL:         tn.WAL,
		})
	}
	writeJSON(w, resp)
}

func msToDuration(ms float64) (d time.Duration) {
	if ms > 0 {
		d = time.Duration(ms * float64(time.Millisecond))
	}
	return d
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// errorJSON is the structured error body every non-2xx response carries:
//
//	{"error": {"code": "busy", "message": "...", "retry_after_ms": 1000}}
//
// The code is a stable machine-readable discriminator (clients previously
// had to substring-match the message); retry_after_ms is present exactly
// when retrying the same request later can succeed (429, and 503 "closed").
type errorJSON struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// httpError maps daemon errors onto HTTP status codes: transient admission
// rejections become 429 with a Retry-After hint, unknown tenants 404, a
// body over the size limit 413, a tenant whose log failed (wal.ErrFailed)
// 503 "log_failed" with no retry hint — it stays refused until a restart
// replays what its disk holds — and everything else a 400: the daemon
// never blames itself for a request it validated and refused. The body is
// always a structured errorJSON.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	body := errorBody{Code: "bad_request", Message: err.Error()}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
		body.Code = "too_large"
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
		body.Code, body.RetryAfterMS = "busy", 1000
	case errors.Is(err, ErrOverBudget):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
		body.Code, body.RetryAfterMS = "over_budget", 1000
	case errors.Is(err, ErrUnknownTenant):
		code = http.StatusNotFound
		body.Code = "unknown_tenant"
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
		body.Code, body.RetryAfterMS = "closed", 1000
	case errors.Is(err, wal.ErrFailed):
		code = http.StatusServiceUnavailable
		body.Code = "log_failed"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorJSON{Error: body})
}
