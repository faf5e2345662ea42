package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
)

func TestLoadLoopCorpusRef(t *testing.T) {
	l, err := loadLoop("tomcatv.loop0")
	if err != nil {
		t.Fatal(err)
	}
	if l.Graph.Name != "tomcatv.loop0" || l.Weight == 0 || l.Iters == 0 {
		t.Errorf("got %s iters=%d weight=%d, want tomcatv.loop0 with trip count and weight",
			l.Graph.Name, l.Iters, l.Weight)
	}
}

func TestLoadLoopIRFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.ir")
	src := "loop stencil iters=64\na = load p\ns = fadd a, a\nstore s\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := loadLoop(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Graph.Name != "stencil" || l.Iters != 64 || l.Weight != 0 {
		t.Errorf("got %s iters=%d weight=%d, want stencil iters=64 and no weight",
			l.Graph.Name, l.Iters, l.Weight)
	}
}

func TestLoadLoopUnknownShowsRefForm(t *testing.T) {
	for _, arg := range []string{"nosuch.loop0", "tomcatv.loop99", "tomcatv"} {
		_, err := loadLoop(arg)
		if err == nil || !strings.Contains(err.Error(), "bench.loopN") {
			t.Errorf("loadLoop(%q) = %v, want an error naming the bench.loopN form", arg, err)
		}
	}
}

// TestConfigTakesSchedulerErrorName: the machine name the scheduler
// prints when it gives up ("... on 4-cluster/B1/L2: no schedule ...")
// can be pasted into -config as is.
func TestConfigTakesSchedulerErrorName(t *testing.T) {
	msg := (&sched.Error{Graph: "fpppp.loop3", Machine: machine.FourCluster(1, 2).Name}).Error()
	_, rest, ok := strings.Cut(msg, " on ")
	name, _, ok2 := strings.Cut(rest, ":")
	if !ok || !ok2 || name != "4-cluster/B1/L2" {
		t.Fatalf("could not read the machine name out of %q", msg)
	}
	cfg, err := configByName(name)
	if err != nil || cfg.Name != name {
		t.Fatalf("configByName(%q) = %s, %v", name, cfg.Name, err)
	}
}

func TestConfigUnknownListsTable1(t *testing.T) {
	_, err := configByName("4cluster")
	if err == nil {
		t.Fatal("old-style name 4cluster accepted")
	}
	for _, c := range machine.Table1Configs() {
		if !strings.Contains(err.Error(), c.Name) {
			t.Errorf("error %q does not list %s", err, c.Name)
		}
	}
}
