// Package graphio serializes communication graphs to and from JSON, the
// interchange format of the cloudia CLI (-graph) and of POST /v1/advise.
// The graph format is
//
//	{
//	  "nodes": 4,
//	  "edges": [[0,1], [1,2], [2,3]],
//	  "weights": {"0-1": 4.0}            // optional, defaults to 1
//	}
package graphio

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cloudia/internal/core"
)

// graphJSON is the wire form of a communication graph.
type graphJSON struct {
	Nodes   int                `json:"nodes"`
	Edges   [][2]int           `json:"edges"`
	Weights map[string]float64 `json:"weights,omitempty"`
}

// WriteGraph encodes g as JSON.
func WriteGraph(w io.Writer, g *core.Graph) error {
	out := graphJSON{Nodes: g.NumNodes()}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, [2]int{e.From, e.To})
		if wt := g.Weight(e.From, e.To); wt != 1 {
			if out.Weights == nil {
				out.Weights = make(map[string]float64)
			}
			out.Weights[edgeKey(e.From, e.To)] = wt
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadGraph decodes a communication graph from JSON, validating node ranges,
// duplicate edges, and weight references. A positive maxNodes refuses
// larger node counts before the graph is allocated: the count sizes the
// graph's per-node tables, so an untrusted document must be bounded.
func ReadGraph(r io.Reader, maxNodes int) (*core.Graph, error) {
	var in graphJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if in.Nodes < 0 {
		return nil, fmt.Errorf("graphio: negative node count %d", in.Nodes)
	}
	if maxNodes > 0 && in.Nodes > maxNodes {
		return nil, fmt.Errorf("graphio: %d nodes over the limit of %d", in.Nodes, maxNodes)
	}
	g := core.NewGraph(in.Nodes)
	for _, e := range in.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("graphio: %w", err)
		}
	}
	// Sorted keys make the reported error the same on every run when a
	// document has several bad ones; one SetWeights call stores them all,
	// each in O(1).
	keys := make([]string, 0, len(in.Weights))
	for key := range in.Weights {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ws := make([]core.EdgeWeight, len(keys))
	for i, key := range keys {
		from, to, err := parseEdgeKey(key)
		if err != nil {
			return nil, err
		}
		ws[i] = core.EdgeWeight{From: from, To: to, W: in.Weights[key]}
	}
	if err := g.SetWeights(ws); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return g, nil
}

func edgeKey(from, to int) string {
	return strconv.Itoa(from) + "-" + strconv.Itoa(to)
}

func parseEdgeKey(key string) (from, to int, err error) {
	parts := strings.SplitN(key, "-", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("graphio: bad weight key %q (want \"from-to\")", key)
	}
	from, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("graphio: bad weight key %q: %v", key, err)
	}
	to, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("graphio: bad weight key %q: %v", key, err)
	}
	return from, to, nil
}
