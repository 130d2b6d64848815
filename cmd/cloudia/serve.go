package main

// The -serve mode: instead of advising one tenant end to end, the CLI
// reads a JSON batch of tenant jobs, measures each measurement group once,
// and routes every tenant through the sharded multi-tenant advisor
// (internal/serve). Tenants in one group share an allocation and one
// measured matrix — the fleet-re-advising scenario where the
// content-addressed Prep cache splits the preprocessing cost across all of
// them.
//
// Batch format:
//
//	{
//	  "shards": 2,
//	  "profile": "ec2",
//	  "occupancy": 0.6,
//	  "seed": 42,
//	  "tenants": [
//	    {"name": "web", "group": "dc1", "template": "mesh2d", "rows": 3,
//	     "cols": 4, "objective": "longest-link", "solver": "cp",
//	     "overalloc": 0.1, "budget_ms": 300, "seed": 7},
//	    {"name": "kv", "group": "dc1", "template": "bipartite",
//	     "frontends": 3, "storage": 9, "objective": "longest-link"}
//	  ]
//	}
//
// Tenant graph fields mirror the CLI template flags; "graph" names a JSON
// graph file instead. "group" defaults to the tenant name (its own
// allocation and measurement).

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/serve"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
)

type serveFile struct {
	Shards     int           `json:"shards"`
	QueueDepth int           `json:"queue_depth"`
	Profile    string        `json:"profile"`
	Occupancy  float64       `json:"occupancy"`
	Seed       int64         `json:"seed"`
	Tenants    []serveTenant `json:"tenants"`
}

type serveTenant struct {
	Name  string `json:"name"`
	Group string `json:"group"`

	Template  string `json:"template"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	X         int    `json:"x"`
	Y         int    `json:"y"`
	Z         int    `json:"z"`
	Mids      int    `json:"mids"`
	Leaves    int    `json:"leaves"`
	Frontends int    `json:"frontends"`
	Storage   int    `json:"storage"`
	Ring      int    `json:"ring"`
	GraphPath string `json:"graph"`

	Objective string `json:"objective"`
	// Metric selects the latency summary searched: mean (default), p95, or
	// p99 — percentile metrics optimize the group's sketched percentile
	// matrix (measure.Result.TailMatrix), tie-breaking on the mean unless
	// no_mean_tie_break is set. (Served jobs take no mean+sd: serve.Submit
	// accepts only mean and percentile matrices.)
	Metric         string `json:"metric"`
	NoMeanTieBreak bool   `json:"no_mean_tie_break"`
	Solver         string `json:"solver"`
	ClusterK       int    `json:"clusterk"`
	// OverAlloc defaults to the paper's 0.1 when omitted, matching the
	// single-tenant -overalloc flag; an explicit 0 disables it.
	OverAlloc *float64 `json:"overalloc"`
	BudgetMS  int      `json:"budget_ms"`
	// DeadlineMS bounds the tenant's whole solve: past it the job returns
	// the best deployment found so far instead of running its budget out.
	DeadlineMS int   `json:"deadline_ms"`
	Seed       int64 `json:"seed"`
}

// tenantSpec casts a tenant's raw objective/metric strings into the one
// validated ObjectiveSpec every entry point shares; only the
// empty-objective default is resolved here.
func tenantSpec(tn serveTenant) advisor.ObjectiveSpec {
	spec := advisor.ObjectiveSpec{
		Objective:      solver.Objective(tn.Objective),
		Metric:         advisor.Metric(tn.Metric),
		NoMeanTieBreak: tn.NoMeanTieBreak,
	}
	if spec.Objective == "" {
		spec.Objective = solver.LongestLink
	}
	return spec
}

// tenantGraph builds one tenant's communication graph through the same
// template machinery the single-tenant flags use.
func tenantGraph(tn serveTenant) (*core.Graph, error) {
	return buildGraph(runConfig{
		template: tn.Template, graphPath: tn.GraphPath,
		rows: orDefault(tn.Rows, 4), cols: orDefault(tn.Cols, 4),
		dimX: orDefault(tn.X, 3), dimY: orDefault(tn.Y, 3), dimZ: orDefault(tn.Z, 3),
		mids: orDefault(tn.Mids, 3), leaves: orDefault(tn.Leaves, 9),
		frontends: orDefault(tn.Frontends, 4), storage: orDefault(tn.Storage, 12),
		ringN: orDefault(tn.Ring, 8),
	})
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// submitWithRetry submits a job, riding out transient ErrBusy rejections
// with a bounded, jittered exponential backoff: 7 attempts, sleeping
// 10ms · 2^attempt scaled by a uniform [0.5,1.5) jitter between them, about
// 1.3s worst case. Only ErrBusy retries — it means the admission queue is
// momentarily full and workers are draining it; every other error
// (ErrOverBudget included: the pending-budget cap does not clear on its
// own while nothing of ours is queued) is the caller's to handle. The
// sleep function is injected for tests.
func submitWithRetry(srv *serve.Server, job serve.Job, rng *rand.Rand, sleep func(time.Duration)) (*serve.Ticket, error) {
	const attempts = 7
	delay := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		tk, err := srv.Submit(job)
		if err == nil || !errors.Is(err, serve.ErrBusy) || attempt == attempts-1 {
			return tk, err
		}
		jitter := 0.5 + rng.Float64()
		sleep(time.Duration(float64(delay) * jitter))
		delay *= 2
	}
}

// servedTenant pairs a parsed tenant with its built graph and ticket.
type servedTenant struct {
	spec   serveTenant
	graph  *core.Graph
	group  string
	ticket *serve.Ticket
}

func runServe(cfg runConfig) error {
	raw, err := os.ReadFile(cfg.servePath)
	if err != nil {
		return err
	}
	var batch serveFile
	if err := json.Unmarshal(raw, &batch); err != nil {
		return fmt.Errorf("parsing %s: %w", cfg.servePath, err)
	}
	if len(batch.Tenants) == 0 {
		return fmt.Errorf("%s: no tenants in batch", cfg.servePath)
	}
	if batch.Profile == "" {
		batch.Profile = cfg.profile
	}
	if batch.Occupancy == 0 {
		batch.Occupancy = cfg.occupancy
	}
	if batch.Seed == 0 {
		batch.Seed = cfg.seed
	}

	var prof topology.Profile
	switch batch.Profile {
	case "ec2":
		prof = topology.EC2Profile()
	case "gce":
		prof = topology.GCEProfile()
	case "rackspace":
		prof = topology.RackspaceProfile()
	default:
		return fmt.Errorf("unknown profile %q", batch.Profile)
	}
	dc, err := topology.New(prof, batch.Seed)
	if err != nil {
		return err
	}
	prov, err := cloud.NewProvider(dc, batch.Occupancy, batch.Seed+1)
	if err != nil {
		return err
	}

	// Build graphs and validate tenants before allocating anything.
	seen := make(map[string]bool, len(batch.Tenants))
	tenants := make([]*servedTenant, 0, len(batch.Tenants))
	groupNeed := make(map[string]int)
	groupOrder := []string{}
	// groupPcts collects, per group, the tail percentiles its tenants'
	// metrics search, so the group measurement also yields those matrices.
	groupPcts := make(map[string]map[float64]bool)
	for _, tn := range batch.Tenants {
		if tn.Name == "" {
			return fmt.Errorf("%s: tenant without a name", cfg.servePath)
		}
		if seen[tn.Name] {
			return fmt.Errorf("%s: duplicate tenant %q", cfg.servePath, tn.Name)
		}
		seen[tn.Name] = true
		spec := tenantSpec(tn)
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("tenant %q: %w", tn.Name, err)
		}
		if spec.Metric == advisor.MetricMeanPlusStd {
			// serve.Submit would reject this too, but only after every
			// group was allocated and measured.
			return fmt.Errorf("tenant %q: served jobs do not support the %q metric", tn.Name, spec.Metric)
		}
		if tn.Solver != "" {
			// Probe the solver name now: discovering it at ticket.Wait would
			// be after every group was allocated and measured.
			if _, err := advisor.NewSolver(tn.Solver, 1, 0); err != nil {
				return fmt.Errorf("tenant %q: %w", tn.Name, err)
			}
		}
		overAlloc := 0.1 // the paper's default, as the -overalloc flag
		if tn.OverAlloc != nil {
			overAlloc = *tn.OverAlloc
		}
		if overAlloc < 0 {
			return fmt.Errorf("tenant %q: negative over-allocation %g", tn.Name, overAlloc)
		}
		g, err := tenantGraph(tn)
		if err != nil {
			return fmt.Errorf("tenant %q: %w", tn.Name, err)
		}
		st := &servedTenant{spec: tn, graph: g, group: tn.Group}
		if st.group == "" {
			st.group = tn.Name
		}
		if pct := spec.TailPercentile(); pct > 0 {
			if groupPcts[st.group] == nil {
				groupPcts[st.group] = make(map[float64]bool)
			}
			groupPcts[st.group][pct] = true
		}
		need := advisor.OverAllocate(g.NumNodes(), overAlloc)
		if groupNeed[st.group] == 0 {
			groupOrder = append(groupOrder, st.group)
		}
		if need > groupNeed[st.group] {
			groupNeed[st.group] = need
		}
		tenants = append(tenants, st)
	}

	// Allocate and measure once per group; every member shares the matrix.
	// Groups with percentile-metric tenants keep quantile sketches and also
	// publish those percentile matrices from the same samples.
	groupMatrix := make(map[string]*core.CostMatrix, len(groupNeed))
	groupTail := make(map[string]map[float64]*core.CostMatrix)
	for gi, group := range groupOrder {
		total := groupNeed[group]
		instances, err := prov.RunInstances(total)
		if err != nil {
			return fmt.Errorf("group %q: %w", group, err)
		}
		var tailAlpha float64
		if len(groupPcts[group]) > 0 {
			tailAlpha = measure.DefaultTailAlpha
		}
		meas, err := measure.Run(dc, instances, measure.Options{
			Scheme:     measure.Staged,
			DurationMS: 20 * float64(total),
			Seed:       batch.Seed + int64(gi),
			TailAlpha:  tailAlpha,
		})
		if err != nil {
			return fmt.Errorf("group %q: %w", group, err)
		}
		groupMatrix[group] = meas.MeanMatrix()
		for pct := range groupPcts[group] {
			if groupTail[group] == nil {
				groupTail[group] = make(map[float64]*core.CostMatrix)
			}
			if groupTail[group][pct], err = meas.TailMatrix(pct); err != nil {
				return fmt.Errorf("group %q: %w", group, err)
			}
		}
	}

	// The batch submits every tenant before waiting on any. When the batch
	// leaves QueueDepth unset, admission capacity (Shards*QueueDepth in
	// total) is sized to cover the whole batch; an explicit QueueDepth is
	// respected as real backpressure, and submission rides it out with a
	// bounded, jittered exponential backoff — workers drain the queue while
	// the submitter sleeps.
	shards := batch.Shards
	if shards <= 0 {
		shards = 2 // serve.New's default
	}
	queue := batch.QueueDepth
	if queue <= 0 {
		queue = (len(batch.Tenants) + shards - 1) / shards
		if queue < 16 {
			queue = 16
		}
	}
	srv := serve.New(serve.Config{Shards: batch.Shards, QueueDepth: queue})
	defer srv.Close()
	backoffRNG := rand.New(rand.NewSource(batch.Seed + 2))
	for _, st := range tenants {
		spec := tenantSpec(st.spec)
		budget := st.spec.BudgetMS
		if budget == 0 {
			budget = 500
		}
		var tail *core.CostMatrix
		if pct := spec.TailPercentile(); pct > 0 {
			tail = groupTail[st.group][pct]
		}
		st.ticket, err = submitWithRetry(srv, serve.Job{
			Tenant:        st.spec.Name,
			Datacenter:    st.group,
			Graph:         st.graph,
			ObjectiveSpec: spec,
			Matrix:        groupMatrix[st.group],
			TailMatrix:    tail,
			SolverName:    st.spec.Solver,
			ClusterK:      st.spec.ClusterK,
			RoundBudget:   solver.Budget{Time: time.Duration(budget) * time.Millisecond},
			Timeout:       time.Duration(st.spec.DeadlineMS) * time.Millisecond,
			Seed:          st.spec.Seed,
		}, backoffRNG, time.Sleep)
		if err != nil {
			return fmt.Errorf("tenant %q: %w", st.spec.Name, err)
		}
	}

	type servedJSON struct {
		Tenant      string  `json:"tenant"`
		Group       string  `json:"group"`
		Shard       int     `json:"shard"`
		Stolen      bool    `json:"stolen,omitempty"`
		Nodes       int     `json:"nodes"`
		DefaultCost float64 `json:"default_cost_ms"`
		TunedCost   float64 `json:"tuned_cost_ms"`
		Improvement float64 `json:"improvement_fraction"`
		CacheHits   int     `json:"cache_hits"`
		CacheMisses int     `json:"cache_misses"`
		QueuedMS    float64 `json:"queued_ms"`
		RanMS       float64 `json:"ran_ms"`
	}
	out := make([]servedJSON, 0, len(tenants))
	for _, st := range tenants {
		res := st.ticket.Wait()
		if res.Err != nil {
			return fmt.Errorf("tenant %q: %w", st.spec.Name, res.Err)
		}
		n := st.graph.NumNodes()
		def := res.Outcome.Problem.Cost(core.Identity(n))
		improv := 0.0
		if def > 0 {
			improv = (def - res.Outcome.Cost) / def
		}
		out = append(out, servedJSON{
			Tenant: st.spec.Name, Group: st.group, Shard: res.Shard, Stolen: res.Stolen, Nodes: n,
			DefaultCost: def, TunedCost: res.Outcome.Cost, Improvement: improv,
			CacheHits: res.CacheHits, CacheMisses: res.CacheMisses,
			QueuedMS: float64(res.Queued) / float64(time.Millisecond),
			RanMS:    float64(res.Ran) / float64(time.Millisecond),
		})
	}
	stats := srv.Stats()

	if cfg.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Tenants []servedJSON     `json:"tenants"`
			Steals  int64            `json:"steals"`
			Cache   serve.CacheStats `json:"cache"`
		}{out, stats.Steals, stats.Cache})
	}
	fmt.Printf("ClouDiA sharded serving: %d tenants, %d measurement groups\n", len(tenants), len(groupOrder))
	fmt.Printf("  %-12s %-10s %6s %5s %10s %10s %7s %11s %8s\n",
		"tenant", "group", "shard", "nodes", "default", "tuned", "improv", "cache(h/m)", "ran")
	for _, r := range out {
		shard := fmt.Sprintf("%d", r.Shard)
		if r.Stolen {
			shard += "*" // ran on a worker other than its home shard
		}
		fmt.Printf("  %-12s %-10s %6s %5d %9.4f %10.4f %6.1f%% %8d/%-2d %7.0fms\n",
			r.Tenant, r.Group, shard, r.Nodes, r.DefaultCost, r.TunedCost,
			100*r.Improvement, r.CacheHits, r.CacheMisses, r.RanMS)
	}
	fmt.Printf("  cache: %d hits, %d misses, %d matrices held; %d steals (* = stolen dispatch)\n",
		stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Matrices, stats.Steals)
	return nil
}
