// Command cloudia is the deployment advisor CLI. It simulates a public
// cloud (EC2-, GCE-, or Rackspace-like), allocates instances for the given
// communication graph with over-allocation, measures pairwise latencies,
// searches for an optimized deployment plan, terminates the extra
// instances, and prints the plan.
//
// With -epoch-ms N > 0 the measurement is streamed instead: its running
// estimate is published as a matrix epoch every N virtual ms, and a
// warm-started solver round runs against each epoch. The default, 0,
// advises once on the final epoch.
//
// Usage examples:
//
//	cloudia -template mesh2d -rows 10 -cols 10 -objective longest-link
//	cloudia -template tree -mids 5 -leaves 45 -objective longest-path -solver mip
//	cloudia -graph app.json -objective longest-link -overalloc 0.2 -json
//	cloudia -template mesh2d -rows 4 -cols 4 -metric p99 -epoch-ms 40
//
// The JSON graph format is {"nodes": N, "edges": [[from,to], ...]}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/graphio"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
)

func main() {
	var (
		template  = flag.String("template", "", "graph template: mesh2d, mesh3d, tree, bipartite, ring")
		rows      = flag.Int("rows", 4, "mesh rows (mesh2d)")
		cols      = flag.Int("cols", 4, "mesh cols (mesh2d)")
		dimX      = flag.Int("x", 3, "mesh x (mesh3d)")
		dimY      = flag.Int("y", 3, "mesh y (mesh3d)")
		dimZ      = flag.Int("z", 3, "mesh z (mesh3d)")
		mids      = flag.Int("mids", 3, "aggregators (tree)")
		leaves    = flag.Int("leaves", 9, "leaves (tree)")
		frontends = flag.Int("frontends", 4, "front-ends (bipartite)")
		storage   = flag.Int("storage", 12, "storage nodes (bipartite)")
		ringN     = flag.Int("ring", 8, "ring size (ring)")
		graphPath = flag.String("graph", "", "JSON communication graph file (overrides -template)")
		objective = flag.String("objective", "longest-link", "objective: longest-link or longest-path")
		overalloc = flag.Float64("overalloc", 0.1, "over-allocation ratio")
		metric    = flag.String("metric", "mean", "latency metric: mean, mean+sd, p95, p99 (percentiles optimize the tail, tie-breaking on the mean)")
		scheme    = flag.String("scheme", "staged", "measurement scheme: token, uncoordinated, staged")
		solverFlg = flag.String("solver", "", "solver: cp, mip, g1, g2, r1, r2, r2l, sa, portfolio (default: cp for LL, mip for LP)")
		clusterK  = flag.Int("clusterk", 0, "cost clusters for cp/mip (0 = paper default)")
		budgetMS  = flag.Int("budget-ms", 2000, "solver wall-clock budget in milliseconds")
		profile   = flag.String("profile", "ec2", "simulated cloud profile: ec2, gce, rackspace")
		occupancy = flag.Float64("occupancy", 0.6, "pre-existing datacenter occupancy [0,1)")
		seed      = flag.Int64("seed", 42, "random seed")
		asJSON    = flag.Bool("json", false, "emit the full report as JSON")
		epochMS   = flag.Float64("epoch-ms", 0, "stream the measurement into warm-started solver rounds, one matrix epoch per this many virtual ms (0 = advise once on the final epoch)")
		listen    = flag.String("listen", "", "run the durable serve daemon on this address (e.g. :8080)")
		walDir    = flag.String("wal-dir", "cloudia-wal", "write-ahead log directory for -listen")
		fsync     = flag.String("fsync", "always", "WAL fsync policy for -listen: always, batch, none")
		shards    = flag.Int("shards", 0, "worker shards for -listen (0 = default)")
		pprofFlag = flag.Bool("pprof", false, "expose net/http/pprof on the -listen address under /debug/pprof/")
	)
	flag.Parse()

	if err := run(runConfig{
		template: *template, rows: *rows, cols: *cols,
		dimX: *dimX, dimY: *dimY, dimZ: *dimZ,
		mids: *mids, leaves: *leaves, frontends: *frontends, storage: *storage,
		ringN: *ringN, graphPath: *graphPath,
		objective: *objective, overalloc: *overalloc, metric: *metric,
		scheme: *scheme, solver: *solverFlg, clusterK: *clusterK,
		budgetMS: *budgetMS, profile: *profile, occupancy: *occupancy,
		seed: *seed, asJSON: *asJSON,
		epochMS: *epochMS,
		listen:  *listen, walDir: *walDir, fsync: *fsync, shards: *shards,
		pprof: *pprofFlag,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "cloudia:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	template                          string
	rows, cols, dimX, dimY, dimZ      int
	mids, leaves, frontends, storage  int
	ringN                             int
	graphPath                         string
	objective, metric, scheme, solver string
	profile                           string
	overalloc, occupancy              float64
	clusterK, budgetMS                int
	seed                              int64
	asJSON                            bool
	epochMS                           float64
	listen, walDir, fsync             string
	shards                            int
	pprof                             bool
}

// validateFlags rejects flag combinations that can never run, before any
// simulation work starts. What to optimize — objective, metric, scheme,
// and their combinations — is advisor.ObjectiveSpec's job, validated once
// inside the advisor; the flags here are only about *how* the process runs
// (daemons, epoch periods).
func validateFlags(cfg runConfig) error {
	if cfg.epochMS < 0 {
		return fmt.Errorf("-epoch-ms must not be negative, got %g", cfg.epochMS)
	}
	if cfg.listen != "" {
		if cfg.epochMS > 0 {
			return fmt.Errorf("-listen daemons receive epochs over HTTP; -epoch-ms streams a single run")
		}
		if cfg.walDir == "" {
			return fmt.Errorf("-listen requires a -wal-dir")
		}
		if _, err := parseFsync(cfg.fsync); err != nil {
			return err
		}
	}
	if cfg.pprof && cfg.listen == "" {
		return fmt.Errorf("-pprof exposes profiles on the daemon address and needs -listen")
	}
	return nil
}

func run(cfg runConfig) error {
	if err := validateFlags(cfg); err != nil {
		return err
	}
	if cfg.listen != "" {
		return runDaemon(cfg)
	}
	g, err := buildGraph(cfg)
	if err != nil {
		return err
	}

	var prof topology.Profile
	switch cfg.profile {
	case "ec2":
		prof = topology.EC2Profile()
	case "gce":
		prof = topology.GCEProfile()
	case "rackspace":
		prof = topology.RackspaceProfile()
	default:
		return fmt.Errorf("unknown profile %q", cfg.profile)
	}
	dc, err := topology.New(prof, cfg.seed)
	if err != nil {
		return err
	}
	prov, err := cloud.NewProvider(dc, cfg.occupancy, cfg.seed+1)
	if err != nil {
		return err
	}

	// The raw flag strings cast straight into the objective spec; its
	// Validate (run by Advise/StreamingAdvise) is the single authority on
	// unknown values — no CLI-side switch.
	acfg := advisor.Config{
		Graph: g,
		ObjectiveSpec: advisor.ObjectiveSpec{
			Objective: solver.Objective(cfg.objective),
			Metric:    advisor.Metric(cfg.metric),
			Scheme:    measure.Scheme(cfg.scheme),
		},
		OverAllocation: cfg.overalloc,
		SolverName:     cfg.solver,
		ClusterK:       cfg.clusterK,
		SolverBudget:   solver.Budget{Time: time.Duration(cfg.budgetMS) * time.Millisecond},
		Seed:           cfg.seed,
	}

	if cfg.epochMS > 0 {
		srep, err := advisor.StreamingAdvise(prov, advisor.StreamingConfig{
			Config:  acfg,
			EpochMS: cfg.epochMS,
		})
		if err != nil {
			return err
		}
		if cfg.asJSON {
			return printJSON(&srep.Report, g, srep.Rounds)
		}
		printText(&srep.Report, g)
		printRounds(srep.Rounds, srep.FirstAdvice)
		return nil
	}

	rep, err := advisor.Advise(prov, acfg)
	if err != nil {
		return err
	}
	if cfg.asJSON {
		return printJSON(rep, g, nil)
	}
	printText(rep, g)
	return nil
}

func buildGraph(cfg runConfig) (*core.Graph, error) {
	if cfg.graphPath != "" {
		f, err := os.Open(cfg.graphPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := graphio.ReadGraph(f, 0)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", cfg.graphPath, err)
		}
		return g, nil
	}
	switch cfg.template {
	case "mesh2d", "":
		return core.Mesh2D(cfg.rows, cfg.cols)
	case "mesh3d":
		return core.Mesh3D(cfg.dimX, cfg.dimY, cfg.dimZ)
	case "tree":
		return core.TwoLevelAggregation(cfg.mids, cfg.leaves)
	case "bipartite":
		return core.Bipartite(cfg.frontends, cfg.storage)
	case "ring":
		return core.Ring(cfg.ringN)
	}
	return nil, fmt.Errorf("unknown template %q", cfg.template)
}

type jsonReport struct {
	Nodes         int          `json:"nodes"`
	Instances     int          `json:"instances_allocated"`
	Terminated    []string     `json:"terminated"`
	DefaultCost   float64      `json:"default_cost_ms"`
	TunedCost     float64      `json:"tuned_cost_ms"`
	Improvement   float64      `json:"improvement_fraction"`
	Solver        string       `json:"solver"`
	SearchOptimal bool         `json:"search_proved_optimal"`
	Assignments   []jsonAssign `json:"assignments"`
	Rounds        []jsonRound  `json:"streaming_rounds,omitempty"`
}

type jsonAssign struct {
	Node     int    `json:"node"`
	Instance string `json:"instance"`
	IP       string `json:"ip"`
}

type jsonRound struct {
	Epoch       int     `json:"epoch"`
	AtMS        float64 `json:"at_ms"`
	Final       bool    `json:"final"`
	ChangedRows int     `json:"changed_rows"`
	Cost        float64 `json:"cost_ms"`
	Improved    bool    `json:"improved"`
	Winner      string  `json:"winner,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

func printJSON(rep *advisor.Report, g *core.Graph, rounds []advisor.Round) error {
	out := jsonReport{
		Nodes:         g.NumNodes(),
		Instances:     len(rep.AllInstances),
		Terminated:    rep.TerminatedIDs,
		DefaultCost:   rep.DefaultCost,
		TunedCost:     rep.TunedCost,
		Improvement:   rep.Improvement(),
		Solver:        rep.SolverName,
		SearchOptimal: rep.Search.Optimal,
	}
	for _, r := range rounds {
		out.Rounds = append(out.Rounds, jsonRound{
			Epoch:       r.Epoch,
			AtMS:        r.AtMS,
			Final:       r.Final,
			ChangedRows: r.ChangedRows,
			Cost:        r.Cost,
			Improved:    r.Improved,
			Winner:      r.Winner,
			ElapsedMS:   float64(r.Elapsed) / float64(time.Millisecond),
		})
	}
	for node, inst := range rep.Assignments {
		out.Assignments = append(out.Assignments, jsonAssign{
			Node:     node,
			Instance: inst.ID,
			IP:       fmt.Sprintf("%d.%d.%d.%d", inst.IP[0], inst.IP[1], inst.IP[2], inst.IP[3]),
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func printText(rep *advisor.Report, g *core.Graph) {
	fmt.Printf("ClouDiA deployment plan\n")
	fmt.Printf("  application nodes:     %d\n", g.NumNodes())
	fmt.Printf("  instances allocated:   %d\n", len(rep.AllInstances))
	fmt.Printf("  instances terminated:  %d\n", len(rep.TerminatedIDs))
	fmt.Printf("  solver:                %s (optimal proven: %v)\n", rep.SolverName, rep.Search.Optimal)
	fmt.Printf("  default deployment:    %.4f ms\n", rep.DefaultCost)
	fmt.Printf("  tuned deployment:      %.4f ms\n", rep.TunedCost)
	fmt.Printf("  predicted improvement: %.1f%%\n", 100*rep.Improvement())
	fmt.Printf("  node -> instance:\n")
	for node, inst := range rep.Assignments {
		fmt.Printf("    %4d -> %s (%d.%d.%d.%d)\n", node, inst.ID,
			inst.IP[0], inst.IP[1], inst.IP[2], inst.IP[3])
	}
}

func printRounds(rounds []advisor.Round, firstAdvice time.Duration) {
	fmt.Printf("  streaming rounds (first advice after %v):\n", firstAdvice.Round(time.Millisecond))
	for _, r := range rounds {
		mark := " "
		if r.Improved {
			mark = "*"
		}
		final := ""
		if r.Final {
			final = "  (final)"
		}
		fmt.Printf("    epoch %2d @%7.1f ms  %3d rows changed  cost %8.4f ms %s %s%s\n",
			r.Epoch, r.AtMS, r.ChangedRows, r.Cost, mark, r.Winner, final)
	}
}
