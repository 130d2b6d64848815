package graphio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cloudia/internal/core"
)

func TestGraphRoundTrip(t *testing.T) {
	g, err := core.Mesh2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(0, 1, 4.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if !got.HasEdge(e.From, e.To) {
			t.Fatalf("lost edge %v", e)
		}
		if got.Weight(e.From, e.To) != g.Weight(e.From, e.To) {
			t.Fatalf("weight mismatch on %v", e)
		}
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := []string{
		`{"nodes": -1}`,
		`{"nodes": 2, "edges": [[0,2]]}`,
		`{"nodes": 2, "edges": [[0,1],[0,1]]}`,
		`{"nodes": 2, "edges": [[0,1]], "weights": {"0": 2}}`,
		`{"nodes": 2, "edges": [[0,1]], "weights": {"x-y": 2}}`,
		`{"nodes": 2, "edges": [[0,1]], "weights": {"1-0": 2}}`, // weight on missing edge
		`{"nodes": 2, "edges": [[0,1]], "weights": {"0-1": -2}}`,
		`{"nodes": 2, "bogus": true}`,
		`not json`,
		`{"nodes": 5, "edges": []}`,           // over the limit of 4
		`{"nodes": 68719476736, "edges": []}`, // refused before allocating
	}
	for _, c := range cases {
		if _, err := ReadGraph(strings.NewReader(c), 4); err == nil {
			t.Errorf("accepted invalid graph: %s", c)
		}
	}
}

func TestReadGraphMinimal(t *testing.T) {
	g, err := ReadGraph(strings.NewReader(`{"nodes": 3, "edges": [[0,1],[1,2]]}`), 3) // at the limit
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Weight(0, 1) != 1 {
		t.Fatal("missing weights should default to 1")
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := core.NewCostMatrix(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				m.Set(i, j, rng.Float64())
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteCostMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCostMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("(%d,%d): %g != %g", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestReadCostMatrixErrors(t *testing.T) {
	cases := []string{
		`{"size": 2, "costs": [[0,1]]}`,
		`{"size": 2, "costs": [[0,1],[1]]}`,
		`{"size": 2, "costs": [[1,1],[1,0]]}`, // nonzero diagonal
		`{"size": 2, "costs": [[0,-1],[1,0]]}`,
		`{"size": -1, "costs": []}`,
		`garbage`,
	}
	for _, c := range cases {
		if _, err := ReadCostMatrix(strings.NewReader(c)); err == nil {
			t.Errorf("accepted invalid matrix: %s", c)
		}
	}
}

// Property: any random weighted DAG round-trips losslessly.
func TestGraphRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g, err := core.RandomDAG(n, 0.3, rng)
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if rng.Intn(3) == 0 {
				if err := g.SetWeight(e.From, e.To, 0.5+rng.Float64()*5); err != nil {
					return false
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			return false
		}
		got, err := ReadGraph(&buf, 0)
		if err != nil {
			return false
		}
		if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !got.HasEdge(e.From, e.To) || got.Weight(e.From, e.To) != g.Weight(e.From, e.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
