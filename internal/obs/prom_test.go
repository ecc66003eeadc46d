package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// promGoldenRegistry builds a registry whose WriteProm output is fully
// deterministic: fixed values, a fixed SLO clock, and no spans.
func promGoldenRegistry() *Registry {
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	r := NewRegistry()
	r.Counter("demo.requests").Add(5)
	r.Gauge("demo.inflight").Set(2)
	h := r.Histogram("demo.latency.seconds", []float64{0.1, 1})
	for _, x := range []float64{0.05, 0.5, 5} {
		h.Observe(x)
	}
	hv := r.HistogramVec("demo.tenant.latency.seconds", []float64{0.1, 1}, "tenant")
	hv.With("acme").Observe(0.25)
	// One redirected resolution's worth of label drops, as a capped vec
	// records it (TestVecCardinalityOverflow covers the redirect).
	r.Counter(labelsDroppedName).Inc()
	slo := r.SLO("demo.latency", SLOConfig{Objective: 0.9, Window: time.Minute, Buckets: 6, Clock: clock})
	for i := 0; i < 9; i++ {
		slo.Observe(true)
	}
	slo.Observe(false)
	return r
}

// WriteProm output is contractually deterministic (families sorted by
// name, series by label text), so the full exposition is pinned as a
// golden file. Regenerate with `go test ./internal/obs -run Golden -update`.
func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promGoldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteProm output drifted from golden file %s.\ngot:\n%s\nwant:\n%s",
			golden, buf.String(), string(want))
	}
	// Determinism double-check: a second write of the same registry
	// yields identical bytes.
	var again bytes.Buffer
	if err := promGoldenRegistry().WriteProm(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two WriteProm calls on identical registries differ")
	}
}

// Every non-comment exposition line must match the version 0.0.4 text
// format grammar, and histogram families must carry the cumulative
// _bucket/_sum/_count series with an +Inf bucket equal to the count.
func TestWritePromFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := promGoldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)
	typeLine := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !typeLine.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
			seen[line] = true
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("bad sample line: %q", line)
		}
		seen[line] = true
	}
	for _, want := range []string{
		"# TYPE demo_latency_seconds histogram",
		`demo_latency_seconds_bucket{le="0.1"} 1`,
		`demo_latency_seconds_bucket{le="1"} 2`,
		`demo_latency_seconds_bucket{le="+Inf"} 3`,
		"demo_latency_seconds_count 3",
		`demo_tenant_latency_seconds_bucket{tenant="acme",le="1"} 1`,
		`obs_slo_error_rate{slo="demo.latency"} 0.1`,
		`obs_slo_objective{slo="demo.latency"} 0.9`,
		`obs_slo_window_good{slo="demo.latency"} 9`,
		"obs_labels_dropped 1",
		"obs_spans_dropped_total 0",
	} {
		if !seen[want] {
			t.Errorf("exposition lacks line %q", want)
		}
	}
}

// Dotted (and otherwise invalid) metric names must sanitize onto the
// Prometheus name charset without collapsing distinct characters'
// positions.
func TestPromSanitize(t *testing.T) {
	cases := map[string]string{
		"serve.tenant.latency": "serve_tenant_latency",
		"a-b.c":                "a_b_c",
		"9lives":               "_9lives",
		"ok_name:sub":          "ok_name:sub",
	}
	for in, want := range cases {
		if got := promSanitize(in); got != want {
			t.Errorf("promSanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
