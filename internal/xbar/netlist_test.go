package xbar

import (
	"math"
	"strings"
	"testing"

	"geniex/internal/linalg"
)

func TestWriteSPICEStructure(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(1)
	g := randomLevels(cfg, r)
	v := randomDrive(cfg, r)
	var b strings.Builder
	if err := WriteSPICE(&b, cfg, g, v); err != nil {
		t.Fatal(err)
	}
	deck := b.String()

	counts := map[string]int{
		"Vin":   cfg.Rows,
		"Rsrc":  cfg.Rows,
		"Rsnk":  cfg.Cols,
		"Gsel_": cfg.Rows * cfg.Cols,
		"Gmem_": cfg.Rows * cfg.Cols,
		"Rwr_":  cfg.Rows * (cfg.Cols - 1),
		"Rwc_":  (cfg.Rows - 1) * cfg.Cols,
	}
	for prefix, want := range counts {
		got := 0
		for _, line := range strings.Split(deck, "\n") {
			if strings.HasPrefix(line, prefix) {
				got++
			}
		}
		if got != want {
			t.Errorf("%s elements: %d, want %d", prefix, got, want)
		}
	}
	for _, want := range []string{".param v0=", ".op", ".end", ".print dc I(Rsnk0)"} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q", want)
		}
	}
}

func TestWriteSPICELinearMode(t *testing.T) {
	cfg := smallConfig()
	cfg.NonLinear = false
	r := linalg.NewRNG(2)
	g := randomLevels(cfg, r)
	v := randomDrive(cfg, r)
	var b strings.Builder
	if err := WriteSPICE(&b, cfg, g, v); err != nil {
		t.Fatal(err)
	}
	deck := b.String()
	if strings.Contains(deck, "Gmem_") || !strings.Contains(deck, "Rmem_") {
		t.Error("linear deck should use resistors, not behavioural sources")
	}
}

func TestWriteSPICEDeterministic(t *testing.T) {
	cfg := smallConfig()
	r := linalg.NewRNG(3)
	g := randomLevels(cfg, r)
	v := randomDrive(cfg, r)
	var a, b strings.Builder
	if err := WriteSPICE(&a, cfg, g, v); err != nil {
		t.Fatal(err)
	}
	if err := WriteSPICE(&b, cfg, g, v); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("netlist not deterministic")
	}
}

func TestWriteSPICEErrors(t *testing.T) {
	cfg := smallConfig()
	var b strings.Builder
	if err := WriteSPICE(&b, cfg, linalg.NewDense(2, 2), make([]float64, cfg.Rows)); err == nil {
		t.Error("expected shape error")
	}
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	linalg.Fill(g.Data, cfg.Goff())
	if err := WriteSPICE(&b, cfg, g, make([]float64, 1)); err == nil {
		t.Error("expected drive length error")
	}
	bad := cfg
	bad.Ron = -1
	if err := WriteSPICE(&b, bad, g, make([]float64, cfg.Rows)); err == nil {
		t.Error("expected config error")
	}
	// Out-of-window cells are refused as Program refuses them, before
	// any of the deck is written.
	for _, gv := range []float64{cfg.Gon() * 2, math.NaN(), 0} {
		g.Set(2, 3, gv)
		b.Reset()
		if err := WriteSPICE(&b, cfg, g, make([]float64, cfg.Rows)); err == nil || b.Len() != 0 {
			t.Errorf("conductance %v: error %v after %d bytes, want a window error and no deck", gv, err, b.Len())
		}
	}
}
