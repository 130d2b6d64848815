package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"strings"

	"cloudia/internal/lint"
)

// listedPackage is the slice of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Dir        string
	Module     *struct{ GoVersion string }
}

// run resolves the given package patterns with `go list -export`, runs
// the suite over the in-scope matches, and prints each finding to stdout
// with a suppression template under it, so each site can be deliberately
// fixed or annotated. It returns the process exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("cloudia-vet", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cloudia-vet [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := goList(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudia-vet: %v\n", err)
		return 1
	}

	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	found := 0
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || !inScope(p.ImportPath) {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = p.Dir + string(os.PathSeparator) + f
		}
		goVersion := ""
		if p.Module != nil {
			goVersion = p.Module.GoVersion
		}
		diags, err := lint.Check(lint.Unit{
			ImportPath: p.ImportPath,
			GoFiles:    files,
			Importer:   imp,
			GoVersion:  goVersion,
		}, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cloudia-vet: %v\n", err)
			return 1
		}
		for _, d := range diags {
			found++
			fmt.Println(d)
			fmt.Printf("\tto suppress, put this on the line above %s:%d:\n\t%s <why this cannot break bit-equality>\n",
				d.Pos.Filename, d.Pos.Line, lint.SuppressionMarker)
		}
	}
	if found > 0 {
		fmt.Printf("cloudia-vet: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// inScope reports whether any analyzer in the suite would run on the
// package: everything else (out-of-scope packages, test variants like
// "pkg [pkg.test]") is skipped.
func inScope(importPath string) bool {
	if strings.ContainsAny(importPath, " []") {
		return false
	}
	for _, a := range analyzers {
		if a.Scope == nil || a.Scope(importPath) {
			return true
		}
	}
	return false
}

// goList shells out to the go command for package resolution — the one
// authority on build lists — requesting export data so type checking can
// read compiled dependency APIs instead of re-checking the world.
func goList(patterns []string) ([]listedPackage, error) {
	cmdArgs := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export,Standard,DepOnly,GoFiles,Dir,Module"}, patterns...)
	cmd := exec.Command("go", cmdArgs...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
