package loadgen

import (
	"bytes"
	"strings"
	"testing"
)

func testSpec() Spec {
	return Spec{
		Count:             8,
		MinNodes:          6,
		MaxNodes:          24,
		RecurrenceDensity: 0.3,
		ExtraEdgeDensity:  0.5,
		ClusterAffinity:   0.7,
		Seed:              42,
	}
}

// TestGenerateDeterministicNDJSON pins the harness's reproducibility
// contract: the same spec yields byte-identical NDJSON, and the seed
// actually matters.
func TestGenerateDeterministicNDJSON(t *testing.T) {
	spec := testSpec()
	var a, b bytes.Buffer
	for _, buf := range []*bytes.Buffer{&a, &b} {
		loops, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if len(loops) != spec.Count {
			t.Fatalf("generated %d loops, want %d", len(loops), spec.Count)
		}
		if err := WriteCorpus(buf, loops); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same spec produced different NDJSON bytes")
	}

	other := spec
	other.Seed = 43
	loops, err := other.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := WriteCorpus(&c, loops); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical corpora")
	}
}

// TestCorpusRoundTrip checks write → read preserves every loop: same
// count, same graph fingerprints, same trip counts.
func TestCorpusRoundTrip(t *testing.T) {
	loops, err := testSpec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, loops); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(loops) {
		t.Fatalf("round trip: %d loops, want %d", len(got), len(loops))
	}
	for i := range got {
		if got[i].Graph.Fingerprint() != loops[i].Graph.Fingerprint() {
			t.Fatalf("loop %d: fingerprint changed across round trip", i)
		}
		if got[i].Iters != loops[i].Iters {
			t.Fatalf("loop %d: iters %d != %d", i, got[i].Iters, loops[i].Iters)
		}
	}
}

// TestReadCorpusRejectsBadInput: empty, corrupt, and graph-less lines
// all fail at load time with the offending line number.
func TestReadCorpusRejectsBadInput(t *testing.T) {
	if _, err := ReadCorpus(strings.NewReader("")); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := ReadCorpus(strings.NewReader("{not json\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("corrupt line: got %v, want line-1 error", err)
	}
	if _, err := ReadCorpus(strings.NewReader(`{"iters":5}` + "\n")); err == nil || !strings.Contains(err.Error(), "no graph") {
		t.Errorf("graph-less loop: got %v, want no-graph error", err)
	}
}

// TestSpecValidate rejects the unusable corners.
func TestSpecValidate(t *testing.T) {
	for name, mut := range map[string]func(*Spec){
		"zero count":     func(s *Spec) { s.Count = 0 },
		"min nodes 1":    func(s *Spec) { s.MinNodes = 1 },
		"max < min":      func(s *Spec) { s.MaxNodes = s.MinNodes - 1 },
		"trip inverted":  func(s *Spec) { s.MinTrip = 100; s.MaxTrip = 10 },
		"negative knob":  func(s *Spec) { s.ExtraEdgeDensity = -1 },
		"affinity > 1":   func(s *Spec) { s.ClusterAffinity = 1.5 },
		"recurrence > 1": func(s *Spec) { s.RecurrenceDensity = 2 },
	} {
		s := testSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}
