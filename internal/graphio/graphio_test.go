package graphio

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

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

// weightedDoc returns a graph document over n nodes with e edges (i, i+k mod
// n for k = 1, 2, ...), every one of them weighted.
func weightedDoc(n, e int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"nodes": %d, "edges": [`, n)
	for i := 0; i < e; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i%n, (i%n+1+i/n)%n)
	}
	b.WriteString(`], "weights": {`)
	for i := 0; i < e; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%d-%d": %d`, i%n, (i%n+1+i/n)%n, 2+i%7)
	}
	b.WriteString("}}")
	return b.String()
}

// Decoding is linear in the weighted edges: 16k of them, a ~400 KB advise
// body, once took tens of seconds because every weight rebuilt the graph's
// weight caches.
func TestReadGraphManyWeightsIsLinear(t *testing.T) {
	doc := weightedDoc(4096, 16384)
	start := time.Now()
	g, err := ReadGraph(strings.NewReader(doc), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("decoding 16k weighted edges took %v, want well under 5s", elapsed)
	}
	if g.NumEdges() != 16384 || g.Weight(0, 1) != 2 {
		t.Fatalf("got %d edges, weight(0,1) = %g", g.NumEdges(), g.Weight(0, 1))
	}
}

// A document with several bad weight keys reports the same one every time.
func TestReadGraphWeightErrorIsDeterministic(t *testing.T) {
	doc := `{"nodes": 3, "edges": [[0,1]], "weights": {"2-1": 2, "0-2": 2, "1-2": 2}}`
	var first string
	for i := 0; i < 50; i++ {
		_, err := ReadGraph(strings.NewReader(doc), 0)
		if err == nil {
			t.Fatal("accepted weights on missing edges")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, "(0,2)") {
				t.Fatalf("error %q, want the first sorted key 0-2 reported", first)
			}
		} else if err.Error() != first {
			t.Fatalf("error changed between runs: %q then %q", first, err.Error())
		}
	}
}

// fuzzMaxNodes is FuzzReadGraph's node bound, the daemon's advise cap.
const fuzzMaxNodes = 4096

// FuzzReadGraph feeds arbitrary documents to ReadGraph. It must never panic
// and never accept more than fuzzMaxNodes nodes, and every document it
// accepts must survive WriteGraph → ReadGraph with the same edges in the
// same order and the same weights. Every accepted graph also passes
// Validate, and its per-node lists agree with its edge list (checkView).
// The seed corpus in
// testdata/fuzz/FuzzReadGraph holds plain and weighted graphs and one
// document per refusal ReadGraph makes; run `make fuzz` to explore beyond
// it.
func FuzzReadGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		g, err := ReadGraph(bytes.NewReader(doc), fuzzMaxNodes)
		if err != nil {
			return
		}
		if g.NumNodes() > fuzzMaxNodes {
			t.Fatalf("accepted %d nodes over the bound of %d", g.NumNodes(), fuzzMaxNodes)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		checkView(t, g)
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadGraph(&buf, fuzzMaxNodes)
		if err != nil {
			t.Fatalf("written graph does not read back: %v", err)
		}
		if back.NumNodes() != g.NumNodes() || !slices.Equal(back.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: %d nodes %v, want %d nodes %v",
				back.NumNodes(), back.Edges(), g.NumNodes(), g.Edges())
		}
		for _, e := range g.Edges() {
			if back.Weight(e.From, e.To) != g.Weight(e.From, e.To) {
				t.Fatalf("weight of %v: %g after the round trip, want %g", e, back.Weight(e.From, e.To), g.Weight(e.From, e.To))
			}
		}
	})
}

// checkView fails t unless Out, In, InEdgeIDs and IncidentEdgeIDs hold each
// edge of g exactly once in every list that should hold it, in edge-list
// order: walking the edges in order, edge k must be the next unread slot of
// its tail's out list and incident list and of its head's in lists and
// incident list, and every list must be read to its end.
func checkView(t *testing.T, g *core.Graph) {
	t.Helper()
	n := g.NumNodes()
	outAt, inAt, incAt := make([]int, n), make([]int, n), make([]int, n)
	for k, e := range g.Edges() {
		out, in, inIDs := g.Out(e.From), g.In(e.To), g.InEdgeIDs(e.To)
		if outAt[e.From] >= len(out) || out[outAt[e.From]] != e.To {
			t.Fatalf("edge %d %v: Out(%d) = %v, slot %d", k, e, e.From, out, outAt[e.From])
		}
		if inAt[e.To] >= len(in) || in[inAt[e.To]] != e.From || len(inIDs) != len(in) || inIDs[inAt[e.To]] != int32(k) {
			t.Fatalf("edge %d %v: In(%d) = %v, InEdgeIDs = %v, slot %d", k, e, e.To, in, inIDs, inAt[e.To])
		}
		outAt[e.From]++
		inAt[e.To]++
		for _, v := range []int{e.From, e.To} {
			inc := g.IncidentEdgeIDs(v)
			if incAt[v] >= len(inc) || inc[incAt[v]] != int32(k) {
				t.Fatalf("edge %d %v: IncidentEdgeIDs(%d) = %v, slot %d", k, e, v, inc, incAt[v])
			}
			incAt[v]++
		}
	}
	for v := 0; v < n; v++ {
		if outAt[v] != len(g.Out(v)) || inAt[v] != len(g.In(v)) || incAt[v] != len(g.IncidentEdgeIDs(v)) {
			t.Fatalf("node %d: lists hold %d/%d/%d edges, edge list %d/%d/%d",
				v, len(g.Out(v)), len(g.In(v)), len(g.IncidentEdgeIDs(v)), outAt[v], inAt[v], incAt[v])
		}
	}
}
