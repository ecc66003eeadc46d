package nonideal

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Every builtin component round-trips through the JSON envelope with
// its parameters intact.
func TestJSONRoundTripEveryComponent(t *testing.T) {
	cases := []Component{
		&StuckAt{POn: 0.01, POff: 0.02, Cluster: 3},
		&D2DVariation{Sigma: 0.25},
		&C2CVariation{Sigma: 0.1},
		&Drift{Nu: 0.05, Tau0: 10},
		&LineResistance{Scale: 1.5},
		&ReadNoise{Sigma: 0.02},
	}
	for _, c := range cases {
		in := Stack{c}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.Kind(), err)
		}
		if !strings.Contains(string(b), `"kind":"`+c.Kind()+`"`) {
			t.Fatalf("%s: envelope missing kind: %s", c.Kind(), b)
		}
		var out Stack
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("%s: unmarshal: %v", c.Kind(), err)
		}
		if len(out) != 1 || !reflect.DeepEqual(out[0], c) {
			t.Fatalf("%s: round trip changed component: %#v -> %#v", c.Kind(), c, out[0])
		}
	}
}

// A decoded stack reproduces the original's perturbation bit-exactly.
func TestJSONRoundTripPreservesPerturbation(t *testing.T) {
	env := testEnv()
	orig := fullStack()
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Stack
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	ga, gb := midMatrix(env), midMatrix(env)
	if _, err := orig.Apply(ga, env, 21, 1e5); err != nil {
		t.Fatal(err)
	}
	if _, err := decoded.Apply(gb, env, 21, 1e5); err != nil {
		t.Fatal(err)
	}
	for i := range ga.Data {
		if ga.Data[i] != gb.Data[i] {
			t.Fatalf("decoded stack diverged at cell %d", i)
		}
	}
}

func TestJSONEmptyStackAndScenario(t *testing.T) {
	var s Stack
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Stack
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("empty stack decoded as %d components", len(back))
	}

	sc := &Scenario{Stack: Stack{&ReadNoise{Sigma: 0.1}}, Seed: 9, Time: 50}
	sb, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var sc2 Scenario
	if err := json.Unmarshal(sb, &sc2); err != nil {
		t.Fatal(err)
	}
	if sc2.Seed != 9 || sc2.Time != 50 || len(sc2.Stack) != 1 {
		t.Fatalf("scenario round trip lost fields: %+v", sc2)
	}
}

func TestJSONUnknownKindRejected(t *testing.T) {
	var s Stack
	err := json.Unmarshal([]byte(`[{"kind":"alien_rays"}]`), &s)
	if err == nil || !strings.Contains(err.Error(), "alien_rays") {
		t.Fatalf("unknown kind accepted: %v", err)
	}
}

// A stack Validate accepts can still overflow: ν·d0 underflows to 0
// and ln(1+t/τ0) is +Inf, so drift ages every cell to NaN, which no
// clamp catches. Apply must fail and name the component.
func TestApplyRejectsNonFiniteConductance(t *testing.T) {
	var sc Scenario
	if err := json.Unmarshal([]byte(`{"stack":[{"kind":"drift","params":{"nu":1e-320,"tau0":1e-320}}],"time":1}`), &sc); err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("the stack must pass Validate for this test to mean anything: %v", err)
	}
	env := testEnv()
	_, err := sc.ApplyTile(midMatrix(env), env, 0, 0, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "(drift)") {
		t.Fatalf("ApplyTile error = %v, want one naming the drift component", err)
	}
}

// FuzzScenarioJSON decodes arbitrary bytes as a Scenario. A decoded
// scenario must re-marshal to bytes that decode and marshal back to
// the same bytes, and once it validates, applying it to an in-window
// 8×8 tile must either fail or leave every conductance finite and in
// [Goff, Gon].
func FuzzScenarioJSON(f *testing.F) {
	for _, c := range fullStack() {
		b, err := json.Marshal(Scenario{Stack: Stack{c}, Seed: 3, Time: 1e5})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, seed := range []string{
		`{"stack":[{"kind":"no_such_kind"}]}`,
		`{"stack":[],"seed":1}`,
		`{"stack":[{"kind":"drift","params":{"nu":`,
		`{"stack":[{"kind":"drift","params":{"nu":1e308,"tau0":1e308}},{"kind":"read_noise","params":{"sigma":1e308}}],"time":1e308}`,
		`{"stack":[{"kind":"line_resistance","params":{"scale":1e308}},{"kind":"d2d_variation","params":{"sigma":1e308}}]}`,
		`{"stack":[{"kind":"drift","params":{"nu":1e-320,"tau0":1e-320}}],"time":1}`,
	} {
		f.Add([]byte(seed))
	}
	env := testEnv()
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scenario
		if json.Unmarshal(data, &sc) != nil {
			return
		}
		b1, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("decoded scenario does not marshal: %v", err)
		}
		var back Scenario
		if err := json.Unmarshal(b1, &back); err != nil {
			t.Fatalf("re-marshaled scenario %s does not decode: %v", b1, err)
		}
		b2, err := json.Marshal(back)
		if err != nil || string(b2) != string(b1) {
			t.Fatalf("round trip changed the scenario: %s -> %s (%v)", b1, b2, err)
		}
		if sc.Validate() != nil {
			return
		}
		g := midMatrix(env)
		if _, err := sc.ApplyTile(g, env, 0, 0, 0, 0); err != nil {
			return
		}
		for k, v := range g.Data {
			if !(v >= env.Goff && v <= env.Gon) {
				t.Fatalf("%s left conductance %d at %g, outside [%g, %g]", b1, k, v, env.Goff, env.Gon)
			}
		}
	})
}
