package funcsim

import (
	"strings"
	"testing"
)

// The built-in ladder must resolve by name, in decreasing-rank order,
// with the attributes the serving stack keys decisions on.
func TestModelRegistryBuiltins(t *testing.T) {
	want := []string{"circuit", "geniex-adaptive", "geniex", "analytical", "ideal"}
	got := ModelNames()
	if len(got) < len(want) {
		t.Fatalf("ModelNames() = %v, want at least the %d built-ins", got, len(want))
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("ModelNames()[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
	}
	prev := int(^uint(0) >> 1)
	for _, name := range got {
		spec, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Rank > prev {
			t.Fatalf("ModelNames() not rank-descending at %q (%d after %d)", name, spec.Rank, prev)
		}
		prev = spec.Rank
	}

	for name, wantCircuit := range map[string]bool{"circuit": true, "geniex": false, "ideal": false} {
		spec, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Circuit != wantCircuit {
			t.Errorf("%q.Circuit = %v, want %v", name, spec.Circuit, wantCircuit)
		}
	}
	for name, wantAdaptive := range map[string]bool{"geniex-adaptive": true, "geniex": false} {
		spec, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.NeedsSurrogate {
			t.Errorf("%q.NeedsSurrogate = false, want true", name)
		}
		if spec.Adaptive != wantAdaptive {
			t.Errorf("%q.Adaptive = %v, want %v", name, spec.Adaptive, wantAdaptive)
		}
	}
}

// Unknown names must fail with a self-documenting error listing the
// registered tiers.
func TestModelByNameUnknown(t *testing.T) {
	_, err := ModelByName("nope")
	if err == nil {
		t.Fatal("ModelByName(nope) did not error")
	}
	for _, name := range []string{"circuit", "geniex", "ideal"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered tier %q", err, name)
		}
	}
}

// Registration is init-time wiring: collisions and malformed specs are
// programming errors and must panic.
func TestRegisterModelPanics(t *testing.T) {
	mustPanic := func(name string, spec ModelSpec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterModel did not panic", name)
			}
		}()
		RegisterModel(spec)
	}
	mustPanic("empty name", ModelSpec{New: func(ModelParams) (Model, error) { return Ideal{}, nil }})
	mustPanic("nil factory", ModelSpec{Name: "test-nil-factory"})
	mustPanic("duplicate", ModelSpec{Name: "ideal", New: func(ModelParams) (Model, error) { return Ideal{}, nil }})
}

// Surrogate-backed factories must reject a missing or mismatched
// surrogate instead of building a model that fails at MVM time.
func TestModelFactorySurrogateValidation(t *testing.T) {
	cfg := exactConfig(8, 8)
	spec, err := ModelByName("geniex")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.New(ModelParams{Xbar: cfg.Xbar}); err == nil {
		t.Fatal("geniex factory accepted a nil surrogate")
	}

	gx := trainTinyGENIEx(t, cfg.Xbar)
	wrong := exactConfig(4, 4)
	if _, err := spec.New(ModelParams{Xbar: wrong.Xbar, Surrogate: gx}); err == nil {
		t.Fatal("geniex factory accepted an 8x8 surrogate for a 4x4 design point")
	}

	model, err := spec.New(ModelParams{Xbar: cfg.Xbar, Surrogate: gx})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := model.(GENIEx); !ok {
		t.Fatalf("geniex factory built %T", model)
	}
}

// Factories must thread circuit-model options through: Degraded and
// Health reach the built model.
func TestModelFactoryCircuitParams(t *testing.T) {
	cfg := exactConfig(8, 8)
	spec, err := ModelByName("circuit")
	if err != nil {
		t.Fatal(err)
	}
	h := &SolverHealth{}
	model, err := spec.New(ModelParams{Xbar: cfg.Xbar, Degraded: true, Health: h})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := model.(Circuit)
	if !ok {
		t.Fatalf("circuit factory built %T", model)
	}
	if !c.Degraded || c.Health != h {
		t.Fatalf("circuit factory dropped params: %+v", c)
	}
}
