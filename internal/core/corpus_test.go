package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/graphio"
)

// Every graph document in graphio's FuzzReadGraph seed corpus that
// ReadGraph accepts reads the same through Graph's accessors as through
// the oracle adjacency builder.
func TestReadGraphCorpusMatchesOracle(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "graphio", "testdata", "fuzz", "FuzzReadGraph", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	accepted := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a version line and one []byte("...") value.
		_, val, _ := bytes.Cut(bytes.TrimSpace(src), []byte("\n"))
		doc, err := strconv.Unquote(string(bytes.TrimSuffix(bytes.TrimPrefix(val, []byte("[]byte(")), []byte(")"))))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		g, err := graphio.ReadGraph(bytes.NewReader([]byte(doc)), 4096)
		if err != nil {
			continue
		}
		accepted++
		t.Run(filepath.Base(file), func(t *testing.T) { core.CheckAgainstOracle(t, g) })
	}
	if accepted == 0 {
		t.Fatal("the corpus holds no accepted graph")
	}
}
