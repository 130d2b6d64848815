package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestBuildGraphTemplates(t *testing.T) {
	cases := []struct {
		cfg   runConfig
		nodes int
	}{
		{runConfig{template: "mesh2d", rows: 3, cols: 4}, 12},
		{runConfig{template: "", rows: 2, cols: 2}, 4}, // default template
		{runConfig{template: "mesh3d", dimX: 2, dimY: 2, dimZ: 2}, 8},
		{runConfig{template: "tree", mids: 3, leaves: 9}, 13},
		{runConfig{template: "bipartite", frontends: 2, storage: 3}, 5},
		{runConfig{template: "ring", ringN: 6}, 6},
	}
	for _, c := range cases {
		g, err := buildGraph(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.cfg.template, err)
		}
		if g.NumNodes() != c.nodes {
			t.Fatalf("%s: %d nodes, want %d", c.cfg.template, g.NumNodes(), c.nodes)
		}
	}
}

func TestBuildGraphUnknownTemplate(t *testing.T) {
	if _, err := buildGraph(runConfig{template: "torus"}); err == nil {
		t.Fatal("unknown template accepted")
	}
}

func TestBuildGraphFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	data := `{"nodes": 3, "edges": [[0,1],[1,2]], "weights": {"0-1": 2.5}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(runConfig{graphPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Weight(0, 1) != 2.5 {
		t.Fatal("weight not loaded")
	}
}

func TestBuildGraphMissingFile(t *testing.T) {
	if _, err := buildGraph(runConfig{graphPath: "/nonexistent/g.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunEndToEndSmall(t *testing.T) {
	// Exercise the whole CLI path (minus flag parsing and printing to a
	// terminal) on a tiny configuration.
	err := run(runConfig{
		template: "mesh2d", rows: 2, cols: 2,
		objective: "longest-link", metric: "mean", scheme: "staged",
		profile: "ec2", occupancy: 0.5, overalloc: 0.25,
		budgetMS: 50, seed: 3, asJSON: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunEndToEndStreaming(t *testing.T) {
	// -epoch-ms > 0: incremental advising over measurement epochs.
	err := run(runConfig{
		template: "mesh2d", rows: 2, cols: 2,
		objective: "longest-link", metric: "mean", scheme: "staged",
		profile: "ec2", occupancy: 0.5, overalloc: 0.25,
		budgetMS: 80, seed: 5, asJSON: true,
		epochMS: 30,
	})
	if err != nil {
		t.Fatalf("run -epoch-ms 30: %v", err)
	}
}

func TestStreamMetricSupport(t *testing.T) {
	// Every metric streams end to end — epochs carry sketch-based tail
	// matrices and the mean+sd matrix — and advises on the final epoch.
	for _, metric := range []string{"mean", "mean+sd", "p95", "p99"} {
		for _, epochMS := range []float64{0, 20} {
			if err := run(runConfig{
				template: "mesh2d", rows: 2, cols: 2,
				objective: "longest-link", metric: metric, scheme: "staged",
				profile: "ec2", occupancy: 0.5, budgetMS: 50, seed: 3,
				epochMS: epochMS, asJSON: true,
			}); err != nil {
				t.Fatalf("-metric %s -epoch-ms %g: %v", metric, epochMS, err)
			}
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	base := runConfig{
		template: "mesh2d", rows: 2, cols: 2,
		objective: "longest-link", metric: "mean", scheme: "staged",
		profile: "ec2", occupancy: 0.5, budgetMS: 10, seed: 3,
	}
	bad := base
	bad.profile = "azure"
	if err := run(bad); err == nil {
		t.Fatal("unknown profile accepted")
	}
	bad = base
	bad.objective = "shortest-link"
	if err := run(bad); err == nil {
		t.Fatal("unknown objective accepted")
	}
	bad = base
	bad.metric = "p50"
	if err := run(bad); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
