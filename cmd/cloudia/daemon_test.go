package main

import (
	"strings"
	"testing"

	"cloudia/internal/wal"
)

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in   string
		want wal.SyncPolicy
	}{
		{"", wal.SyncAlways},
		{"always", wal.SyncAlways},
		{"batch", wal.SyncBatch},
		{"none", wal.SyncNone},
	}
	for _, c := range cases {
		got, err := parseFsync(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseFsync(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := parseFsync("every-other-tuesday"); err == nil {
		t.Error("bad fsync policy accepted")
	}
}

func TestValidateFlagsDaemonCombos(t *testing.T) {
	cases := []struct {
		name string
		cfg  runConfig
		want string
	}{
		{"listen+epochs", runConfig{listen: ":0", walDir: "w", epochMS: 20}, "-epoch-ms"},
		{"negative epoch period", runConfig{epochMS: -1}, "-epoch-ms"},
		{"negative budget", runConfig{budgetMS: -1}, "-budget-ms"},
		{"listen without wal dir", runConfig{listen: ":0"}, "-wal-dir"},
		{"listen bad fsync", runConfig{listen: ":0", walDir: "w", fsync: "sometimes"}, "fsync"},
		{"negative workers", runConfig{listen: ":0", walDir: "w", workers: -5}, "-workers"},
		{"workers without listen", runConfig{workers: 4}, "-listen"},
	}
	for _, c := range cases {
		err := validateFlags(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if err := validateFlags(runConfig{listen: ":0", walDir: "w", fsync: "batch", workers: 4}); err != nil {
		t.Errorf("valid daemon flags rejected: %v", err)
	}
}
