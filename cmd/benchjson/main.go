// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document, optionally joined against a baseline
// bench-output file so the document carries before/after speedup ratios.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson [-baseline old.txt] > BENCH_sched.json
//
// Repeated -count runs of the same benchmark are averaged.  The repo's
// scripts/bench_sched.sh wraps this to produce the BENCH_sched.json
// perf-trajectory artefact.
//
// -check validates a previously emitted document instead:
//
//	benchjson -check BENCH_sched.json [-require names]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark's aggregated result.
type Entry struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"bytes_per_op,omitempty"`
	AllocsOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any additional `value unit` metrics (hits, misses...).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Ratio compares an entry against its baseline counterpart.
type Ratio struct {
	Name          string  `json:"name"`
	NsSpeedup     float64 `json:"ns_speedup"`
	AllocsRatio   float64 `json:"allocs_reduction,omitempty"`
	BaselineNs    float64 `json:"baseline_ns_per_op"`
	BaselineAlloc float64 `json:"baseline_allocs_per_op,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []*Entry `json:"benchmarks"`
	Baseline   []*Entry `json:"baseline,omitempty"`
	Ratios     []*Ratio `json:"ratios,omitempty"`
}

func main() {
	baseline := flag.String("baseline", "", "previous `go test -bench` output to compare against")
	require := flag.String("require", "", "comma-separated benchmark `names` that must be present with non-zero iterations")
	check := flag.String("check", "", "validate an existing benchjson `document` instead of converting bench output")
	flag.Parse()

	if *check != "" {
		if err := checkDoc(*check, *require); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	cur, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := checkRequired(cur, *require); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc := &Doc{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: cur,
	}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
			os.Exit(1)
		}
		base, err := parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
			os.Exit(1)
		}
		doc.Baseline = base
		byName := make(map[string]*Entry, len(base))
		for _, e := range base {
			byName[e.Name] = e
		}
		for _, e := range cur {
			b, ok := byName[e.Name]
			if !ok || e.NsPerOp == 0 {
				continue
			}
			r := &Ratio{Name: e.Name, NsSpeedup: round2(b.NsPerOp / e.NsPerOp), BaselineNs: b.NsPerOp}
			if e.AllocsOp > 0 {
				r.AllocsRatio = round2(b.AllocsOp / e.AllocsOp)
				r.BaselineAlloc = b.AllocsOp
			}
			doc.Ratios = append(doc.Ratios, r)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

// checkDoc validates a previously emitted document: it must decode
// strictly against the Doc schema (unknown fields are drift), carry
// the metadata CI dashboards key on, and hold at least one benchmark
// that actually ran.  This is the artefact-side half of the
// -require guard: -require fails the producing run, -check fails a
// pipeline that published a stale, truncated, or hand-edited file.
func checkDoc(path, require string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var doc Doc
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if err := validateDoc(&doc); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if err := checkRequired(doc.Benchmarks, require); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// validateDoc enforces the output schema benchjson promises its
// consumers.
func validateDoc(doc *Doc) error {
	if _, err := time.Parse(time.RFC3339, doc.Generated); err != nil {
		return fmt.Errorf("bad generated timestamp %q: %v", doc.Generated, err)
	}
	if doc.GoVersion == "" || doc.GOOS == "" || doc.GOARCH == "" {
		return fmt.Errorf("missing toolchain metadata (go_version/goos/goarch)")
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks in document")
	}
	names := make(map[string]bool, len(doc.Benchmarks))
	for _, e := range doc.Benchmarks {
		if e.Name == "" {
			return fmt.Errorf("benchmark entry with empty name")
		}
		if names[e.Name] {
			return fmt.Errorf("duplicate benchmark entry %q", e.Name)
		}
		names[e.Name] = true
		if e.Runs <= 0 || e.Iters <= 0 || e.NsPerOp <= 0 {
			return fmt.Errorf("benchmark %q never ran (runs=%d iters=%d ns/op=%v)", e.Name, e.Runs, e.Iters, e.NsPerOp)
		}
	}
	for _, r := range doc.Ratios {
		if !names[r.Name] {
			return fmt.Errorf("ratio for %q has no matching benchmark entry", r.Name)
		}
	}
	return nil
}

// checkRequired fails loudly when a benchmark the artefact is supposed
// to track is missing from the input or never actually ran (zero
// iterations, zero ns/op) — the silent-truncation failure mode where a
// renamed or skipped benchmark lets CI publish an empty artefact as
// success.
func checkRequired(entries []*Entry, require string) error {
	if require == "" {
		return nil
	}
	byName := make(map[string]*Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	var missing []string
	for _, name := range strings.Split(require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := byName[name]
		switch {
		case !ok:
			missing = append(missing, name+" (absent)")
		case e.Iters == 0:
			missing = append(missing, name+" (zero iterations)")
		case e.NsPerOp == 0:
			missing = append(missing, name+" (zero ns/op)")
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("required benchmarks did not run: %s", strings.Join(missing, ", "))
	}
	return nil
}

// parse aggregates benchmark lines, averaging repeated -count runs.
func parse(r io.Reader) ([]*Entry, error) {
	type acc struct {
		entry         *Entry
		ns, b, allocs float64
		extra         map[string]float64
	}
	var order []string
	accs := map[string]*acc{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		a := accs[name]
		if a == nil {
			a = &acc{entry: &Entry{Name: name}, extra: map[string]float64{}}
			accs[name] = a
			order = append(order, name)
		}
		a.entry.Runs++
		a.entry.Iters += iters
		// Remaining fields come in `value unit` pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				a.ns += v
			case "B/op":
				a.b += v
			case "allocs/op":
				a.allocs += v
			default:
				a.extra[fields[i+1]] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	out := make([]*Entry, 0, len(order))
	for _, name := range order {
		a := accs[name]
		runs := float64(a.entry.Runs)
		a.entry.NsPerOp = round2(a.ns / runs)
		a.entry.BPerOp = round2(a.b / runs)
		a.entry.AllocsOp = round2(a.allocs / runs)
		for k, v := range a.extra {
			if a.entry.Extra == nil {
				a.entry.Extra = map[string]float64{}
			}
			a.entry.Extra[k] = round2(v / runs)
		}
		out = append(out, a.entry)
	}
	return out, nil
}
