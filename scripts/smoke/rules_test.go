package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// goodTrace is a complete solve → serve.request chain on a tenant
// track, valid under both the trace rules and the chain walk.
const goodTrace = `{"traceEvents":[
 {"name":"thread_name","ph":"M","tid":2,"args":{"name":"tenant:a"}},
 {"name":"xbar.batch.solve","ph":"X","ts":5,"dur":1,"tid":2,"args":{"span_id":5,"parent_id":4}},
 {"name":"funcsim.tile","ph":"X","ts":4,"dur":3,"tid":2,"args":{"span_id":4,"parent_id":3}},
 {"name":"funcsim.mvm","ph":"X","ts":3,"dur":5,"tid":2,"args":{"span_id":3,"parent_id":2}},
 {"name":"funcsim.forward","ph":"X","ts":2,"dur":7,"tid":2,"args":{"span_id":2,"parent_id":1}},
 {"name":"serve.request","ph":"X","ts":1,"dur":9,"tid":2,"args":{"span_id":1}}
],"spansDropped":0}`

// goodIndex is a name index that lists exactly indexNames.
const goodIndex = "**Full registered-name index.** These 3 names are every series.\n\n" +
	"- a (2): `a.x`, `a.y`.\n- b (1): `b.z`.\n\n`c` registers no series.\n"

var indexNames = map[string]bool{"a.x": true, "a.y": true, "b.z": true}

// edit applies old→new replacement pairs to s, each of which must
// match exactly once.
func edit(t *testing.T, s string, pairs ...string) string {
	t.Helper()
	for i := 0; i < len(pairs); i += 2 {
		if strings.Count(s, pairs[i]) != 1 {
			t.Fatalf("edit %q does not match exactly once", pairs[i])
		}
		s = strings.Replace(s, pairs[i], pairs[i+1], 1)
	}
	return s
}

// The harness's own rules must accept well-formed input and reject
// each crafted bad input for the intended reason, so a gate that could
// no longer fail shows up here.
func TestRules(t *testing.T) {
	traceRules := func(s string) error {
		_, err := checkTrace([]byte(s))
		return err
	}
	index := func(s string) error { return indexRule(s, indexNames) }
	chainRule := func(s string) error {
		var tr chromeTrace
		if err := json.Unmarshal([]byte(s), &tr); err != nil {
			return err
		}
		_, _, err := spanChain(tr)
		return err
	}
	for _, tc := range []struct {
		name   string
		rule   func(string) error
		input  string
		reject string // substring of the wanted error; "" means accept
	}{
		{"trace/ok", traceRules, goodTrace, ""},
		{"trace/no events", traceRules, `{"traceEvents":[],"spansDropped":0}`, "no events"},
		{"trace/no spansDropped", traceRules, edit(t, goodTrace, `,"spansDropped":0`, ``), "lacks the spansDropped"},
		{"trace/negative ts", traceRules, edit(t, goodTrace, `"ts":1,`, `"ts":-1,`), "negative ts"},
		{"trace/dangling parent", traceRules, edit(t, goodTrace, `"parent_id":3`, `"parent_id":9`), "no matching span_id"},
		{"chain/ok", chainRule, goodTrace, ""},
		{"chain/broken", chainRule, edit(t, goodTrace, `"parent_id":3`, `"parent_id":9`), "chain broken"},
		{"chain/cycle", chainRule, edit(t, goodTrace, `"span_id":1}`, `"span_id":1,"parent_id":5}`), "cycle"},
		{"chain/root not serve.request", chainRule, edit(t, goodTrace,
			`"span_id":1}`, `"span_id":1,"parent_id":6}`,
			`],"spansDropped"`, `,{"name":"outer","ph":"X","ts":0,"dur":10,"tid":2,"args":{"span_id":6}}],"spansDropped"`),
			"root is outer"},
		{"chain/no tenant track", chainRule, edit(t, goodTrace, `tenant:a`, `worker`), "tenant:* track"},
		{"prom/ok", promGrammar, "# TYPE a_b histogram\na_b_bucket{le=\"+Inf\"} 3\na_b_sum 1.5e-3\n", ""},
		{"prom/malformed", promGrammar, "# TYPE a counter\na{x=\"1\"}\n", "prom line 2 is malformed"},
		{"index/ok", index, goodIndex, ""},
		{"index/stale entry", index, edit(t, goodIndex, "`b.z`.", "`b.z`, `b.gone`."), "b.gone: listed but not registered"},
		{"index/missing entry", index, edit(t, goodIndex, "`a.x`, `a.y`", "`a.x`"), "a.y: registered but not listed"},
		{"index/wrong count", index, edit(t, goodIndex, "These 3", "These 4"), "counts 4 names, 3 are registered"},
	} {
		err := tc.rule(tc.input)
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.reject != "" && err == nil:
			t.Errorf("%s: accepted, want rejection (%s)", tc.name, tc.reject)
		case tc.reject != "" && !strings.Contains(err.Error(), tc.reject):
			t.Errorf("%s: rejected for the wrong reason: %v, want %q", tc.name, err, tc.reject)
		}
	}
}

// The catalog's reader rule must accept a series read by a test or a
// smoke check and reject an unread one, one only a longer name reads,
// and a non-literal registration. The fixtures use demo.* names that
// no program registers, so this file never counts as a reader of a
// real series.
func TestReaderRule(t *testing.T) {
	const prog = "internal/demo/demo.go"
	for _, tc := range []struct {
		name    string
		program string            // source of prog
		readers map[string]string // further files, path → source
		reject  string            // substring of the wanted error; "" means accept
	}{
		{"unread", `var c = obs.NewCounter("demo.unread")`,
			map[string]string{"internal/demo/other.go": `x := "demo.unread"`}, "never read"},
		{"read in a test file", `var c = obs.NewCounter("demo.ok")`,
			map[string]string{"internal/demo/demo_test.go": `snap.Counters["demo.ok"]`}, ""},
		{"labeled read in smoke", `var v = obs.NewHistogramVec("demo.lat", obs.LatencyBuckets, "tenant")`,
			map[string]string{"scripts/smoke/checks.go": `key := fmt.Sprintf("demo.lat{tenant=%q}", t)`}, ""},
		{"prefix of a read name", `var c = obs.NewCounter("demo.shed")`,
			map[string]string{"internal/demo/demo_test.go": `snap.Counters["demo.shed.drift"]`}, "demo.shed (registered"},
		{"non-literal name", `c := obs.NewCounter("demo.applied." + kind)`,
			map[string]string{"internal/demo/demo_test.go": `"demo.applied."`}, "not a string literal"},
		{"SLO exempt", `s := obs.NewSLO("demo.fidelity", obs.SLOConfig{Objective: 0.9})`, nil, ""},
	} {
		files := map[string]string{prog: tc.program}
		for path, src := range tc.readers {
			files[path] = src
		}
		regs := findRegistrations(prog, tc.program)
		if len(regs) != 1 {
			t.Fatalf("%s: found %d registrations, want 1", tc.name, len(regs))
		}
		_, err := readerRule(regs, files)
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.reject != "" && err == nil:
			t.Errorf("%s: accepted, want rejection (%s)", tc.name, tc.reject)
		case tc.reject != "" && !strings.Contains(err.Error(), tc.reject):
			t.Errorf("%s: rejected for the wrong reason: %v, want %q", tc.name, err, tc.reject)
		}
	}
}
