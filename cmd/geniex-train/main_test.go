package main

import (
	"path/filepath"
	"strings"
	"testing"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// A dataset under two samples cannot be split into a training and a
// validation set, so geniex-train must refuse it with a usage error
// before it labels or trains anything: asked to generate one, or
// handed a saved dataset of one sample or none.
func TestRejectsTooFewSamples(t *testing.T) {
	for _, n := range []string{"1", "0", "-3"} {
		err := run([]string{"-samples", n})
		if err == nil || !strings.Contains(err.Error(), "need at least 2") {
			t.Errorf("-samples %s: err = %v, want a usage error", n, err)
		}
	}

	cfg, err := xbar.NewConfig(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	one, err := core.Generate(cfg, core.GenOptions{Samples: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	empty := &core.Dataset{
		Cfg: cfg,
		V:   linalg.NewDense(0, one.V.Cols),
		G:   linalg.NewDense(0, one.G.Cols),
		FR:  linalg.NewDense(0, one.FR.Cols),
	}
	dir := t.TempDir()
	for name, ds := range map[string]*core.Dataset{"one.gob": one, "empty.gob": empty} {
		path := filepath.Join(dir, name)
		if err := ds.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-load-data", path})
		if err == nil || !strings.Contains(err.Error(), "need at least 2") {
			t.Errorf("-load-data with %d samples: err = %v, want a usage error", ds.Len(), err)
		}
	}
}
