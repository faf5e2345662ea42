package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/sched
BenchmarkTryCommitAttempt/4-cluster/B1/L1-8   	 1000000	       812 ns/op	       0 B/op	       0 allocs/op
BenchmarkTryCommitAttempt/4-cluster/B1/L1-8   	 1000000	       808 ns/op	       0 B/op	       0 allocs/op
BenchmarkPlaceUnplace-8                       	 2000000	       301 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseAveragesRepeatedRuns(t *testing.T) {
	entries, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	tc := entries[0]
	if tc.Name != "BenchmarkTryCommitAttempt/4-cluster/B1/L1" {
		t.Fatalf("unexpected first entry %q (GOMAXPROCS suffix must be stripped)", tc.Name)
	}
	if tc.Runs != 2 || tc.NsPerOp != 810 {
		t.Fatalf("runs=%d ns/op=%v, want 2 runs averaged to 810", tc.Runs, tc.NsPerOp)
	}
}

func TestCheckRequired(t *testing.T) {
	entries, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRequired(entries, "BenchmarkPlaceUnplace"); err != nil {
		t.Fatalf("present benchmark reported missing: %v", err)
	}
	err = checkRequired(entries, "BenchmarkPlaceUnplace,BenchmarkRenamed")
	if err == nil || !strings.Contains(err.Error(), "BenchmarkRenamed (absent)") {
		t.Fatalf("missing benchmark not reported: %v", err)
	}
}

func TestValidateDoc(t *testing.T) {
	good := &Doc{
		Generated: "2026-08-08T00:00:00Z",
		GoVersion: "go1.24",
		GOOS:      "linux",
		GOARCH:    "amd64",
		Benchmarks: []*Entry{
			{Name: "BenchmarkPlaceUnplace", Runs: 1, Iters: 100, NsPerOp: 300},
		},
		Ratios: []*Ratio{{Name: "BenchmarkPlaceUnplace", NsSpeedup: 1.1, BaselineNs: 330}},
	}
	if err := validateDoc(good); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Doc)
		want   string
	}{
		{"bad timestamp", func(d *Doc) { d.Generated = "yesterday" }, "generated timestamp"},
		{"missing metadata", func(d *Doc) { d.GoVersion = "" }, "toolchain metadata"},
		{"empty benchmarks", func(d *Doc) { d.Benchmarks = nil }, "no benchmarks"},
		{"zero iterations", func(d *Doc) { d.Benchmarks[0].Iters = 0 }, "never ran"},
		{"orphan ratio", func(d *Doc) { d.Ratios[0].Name = "BenchmarkGone" }, "no matching benchmark"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := *good
			d.Benchmarks = []*Entry{{Name: "BenchmarkPlaceUnplace", Runs: 1, Iters: 100, NsPerOp: 300}}
			d.Ratios = []*Ratio{{Name: "BenchmarkPlaceUnplace", NsSpeedup: 1.1, BaselineNs: 330}}
			tc.mutate(&d)
			err := validateDoc(&d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckDoc(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{
  "generated": "2026-08-08T00:00:00Z",
  "go_version": "go1.24",
  "goos": "linux",
  "goarch": "amd64",
  "benchmarks": [
    {"name": "BenchmarkPlaceUnplace", "runs": 1, "iters": 100, "ns_per_op": 300}
  ]
}`), 0o644)
	if err := checkDoc(good, "BenchmarkPlaceUnplace"); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if err := checkDoc(good, "BenchmarkGone"); err == nil {
		t.Fatal("missing required benchmark accepted")
	}

	drift := filepath.Join(dir, "drift.json")
	os.WriteFile(drift, []byte(`{"generated": "2026-08-08T00:00:00Z", "go_version": "go1.24", "goos": "linux", "goarch": "amd64", "benchmarks": [], "surprise": 1}`), 0o644)
	if err := checkDoc(drift, ""); err == nil || !strings.Contains(err.Error(), "surprise") {
		t.Fatalf("unknown field accepted: %v", err)
	}

	if err := checkDoc(filepath.Join(dir, "absent.json"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
}
