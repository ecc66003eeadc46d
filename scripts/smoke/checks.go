package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

var (
	metricsAddrRE = regexp.MustCompile(`metrics: serving on (http://\S+)`)
	listenRE      = regexp.MustCompile(`serve: listening on (http://\S+)`)
)

// obsHistograms are the histograms a geniex-mode run with the fidelity
// probe must populate: the surrogate's training data comes from
// circuit solves (solver updates), the evaluation runs the tile
// pipeline, and the probe shadow-solves sampled tiles into the
// divergence histogram.
var obsHistograms = []string{
	"xbar.solver.newton_iters",
	"funcsim.tile.latency_seconds",
	"funcsim.probe.rrmse",
}

// runObs launches a tiny probed funcsim-run with a live metrics
// endpoint and trace export. It checks the JSON snapshot while the run
// executes, then the trace file the run writes when it finishes, then
// the Prometheus exposition while the endpoint lingers.
func runObs(h *harness) error {
	deadline := time.Now().Add(10 * time.Minute)
	tracePath := filepath.Join(h.dir, "obs-trace.json")
	cmd, url, err := h.start("./cmd/funcsim-run", metricsAddrRE,
		"-dataset", "cifar", "-mode", "geniex", "-size", "8",
		"-train", "40", "-test", "8", "-epochs", "1", "-channels", "4",
		"-geniex-samples", "16", "-geniex-epochs", "4",
		"-probe-rate", "4", "-trace-out", tracePath,
		"-metrics-addr", "127.0.0.1:0", "-metrics-linger", "45s")
	if err != nil {
		return err
	}
	defer stop(cmd)

	err = poll(deadline, 2*time.Second, func() error {
		var snap snapshot
		if err := getJSON(url, &snap); err != nil {
			return err
		}
		var missing []string
		for _, name := range obsHistograms {
			hist, ok := snap.Histograms[name]
			switch {
			case !ok:
				missing = append(missing, name+" (absent)")
			case hist.Count <= 0:
				missing = append(missing, name+" (empty)")
			case len(hist.Counts) != len(hist.Bounds)+1:
				missing = append(missing, fmt.Sprintf("%s (schema: %d counts for %d bounds)",
					name, len(hist.Counts), len(hist.Bounds)))
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("waiting for histograms: %s", strings.Join(missing, ", "))
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Println("smoke obs: metrics OK, waiting for trace file")

	// Judge the trace file once it is complete JSON: a poll can land
	// while the child is still writing it.
	var data []byte
	err = poll(deadline, 2*time.Second, func() error {
		b, err := os.ReadFile(tracePath)
		if err == nil && !json.Valid(b) {
			err = fmt.Errorf("%s is incomplete", tracePath)
		}
		data = b
		return err
	})
	if err != nil {
		return fmt.Errorf("waiting for trace file: %w", err)
	}
	summary, err := checkTrace(data)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("smoke obs: trace OK (%s)\n", summary)

	var want []string
	for _, name := range obsHistograms {
		fam := strings.ReplaceAll(name, ".", "_")
		want = append(want, "# TYPE "+fam+" histogram", fam+"_bucket{")
	}
	return scrapeProm(url, want...)
}

// runServe overloads geniex-serve. Its two-rung ladder's faithful tier
// is made slow and flaky by the chaos layer, which spares the floor, so
// a burst must both retry (transient chaos errors) and shed (retry
// exhaustion and overload) to keep every outcome typed. Deadlines are
// generous on purpose: the gate is "no untyped failure", not tail
// latency.
func runServe(h *harness) error {
	deadline := time.Now().Add(5 * time.Minute)
	cmd, url, err := h.start("./cmd/geniex-serve", listenRE,
		"-addr", "127.0.0.1:0",
		"-tiers", "analytical,ideal",
		"-train", "64", "-epochs", "1", "-channels", "4", "-size", "8",
		"-max-inflight", "2", "-tenant-queue", "12",
		"-deadline", "8s", "-retry-max", "2", "-shed-at", "1.25",
		"-chaos-latency", "30ms", "-chaos-latency-jitter", "10ms",
		"-chaos-error-rate", "0.6", "-chaos-spare-floor=true",
		"-chaos-seed", "7")
	if err != nil {
		return err
	}
	defer stop(cmd)

	// The chaotic faithful tier sustains roughly max-inflight/latency
	// divided by the expected attempt count — ~30 QPS here — so 120
	// QPS is a ≥2× overload burst by a wide margin.
	sum, err := h.loadgen(url, 120)
	if err != nil {
		return err
	}
	switch {
	case sum.Requests == 0:
		return fmt.Errorf("loadgen issued no requests")
	case sum.Transport > 0:
		return fmt.Errorf("%d transport errors (connection-level failures are untyped outcomes)", sum.Transport)
	case sum.FiveXX > 0:
		return fmt.Errorf("%d 5xx responses under overload, want 0 (statuses: %v)", sum.FiveXX, sum.StatusCounts)
	}
	for status := range sum.StatusCounts {
		if status != "200" && status != "429" {
			return fmt.Errorf("untyped status %s in %v (want only 200/429 with this deadline budget)", status, sum.StatusCounts)
		}
	}
	fmt.Printf("smoke serve: burst OK: %d requests, statuses %v, retries=%d shed=%d\n",
		sum.Requests, sum.StatusCounts, sum.TotalRetries, sum.TotalShed)

	// The counters are cumulative, so one post-burst scrape suffices;
	// poll in case the last responses are still being written.
	return poll(deadline, time.Second, func() error {
		var snap snapshot
		if err := getJSON(url+"/metrics", &snap); err != nil {
			return err
		}
		if !snap.Enabled {
			return fmt.Errorf("obs registry is disabled in the child")
		}
		if snap.Counters["serve.ok"] == 0 {
			return fmt.Errorf("serve.ok is zero: no request succeeded")
		}
		for _, name := range []string{"serve.shed", "serve.retry"} {
			if snap.Counters[name] == 0 {
				return fmt.Errorf("%s is zero: the burst did not exercise it", name)
			}
		}
		fmt.Printf("smoke serve: metrics OK: shed=%d retry=%d rejected=%d ok=%d\n",
			snap.Counters["serve.shed"], snap.Counters["serve.retry"],
			snap.Counters["serve.rejected"], snap.Counters["serve.ok"])
		return nil
	})
}

// runLoad drives geniex-serve from three loadgen tenants and
// cross-checks three views of that traffic: the JSON snapshot against
// loadgen's client-side view, the Prometheus exposition, and the
// /trace span tree.
func runLoad(h *harness) error {
	// A circuit-backed ladder so the trace tree includes real solver
	// spans; the 8×8 seeded circuit tier keeps per-request cost
	// tolerable. The latency SLO is armed with a generous target — the
	// gate checks plumbing, not tail latency.
	cmd, url, err := h.start("./cmd/geniex-serve", listenRE,
		"-addr", "127.0.0.1:0",
		"-tiers", "circuit,ideal",
		"-train", "48", "-epochs", "1", "-channels", "4", "-size", "8",
		"-max-inflight", "4", "-tenant-queue", "16",
		"-deadline", "10s", "-max-deadline", "15s",
		"-slo-latency-target", "8s", "-slo-latency-objective", "0.9")
	if err != nil {
		return err
	}
	defer stop(cmd)

	// Modest open-loop load: enough traffic for every tenant's
	// histogram to fill, low enough that the circuit tier serves most
	// of it rather than shedding everything to the floor.
	client, err := h.loadgen(url, 10)
	if err != nil {
		return err
	}
	if len(client.Tenants) < 3 {
		return fmt.Errorf("loadgen reports %d tenants, want 3", len(client.Tenants))
	}

	// The server observes serve.tenant.latency_seconds{tenant} only on
	// served responses, so its count must equal the client's OKs
	// exactly. Medians agree within bucket quantization (LatencyBuckets
	// grow ×4 per bucket) plus a floor for client-side HTTP overhead.
	var snap snapshot
	if err := getJSON(url+"/metrics", &snap); err != nil {
		return err
	}
	want := []string{
		`obs_slo_burn_rate{slo="serve.latency"}`,
		`obs_slo_objective{slo="serve.latency"}`,
		"# TYPE serve_tenant_latency_seconds histogram",
	}
	for tenant, ts := range client.Tenants {
		if ts.OK == 0 {
			continue // nothing served; the series may legitimately be absent
		}
		key := fmt.Sprintf("serve.tenant.latency_seconds{tenant=%q}", tenant)
		hist, ok := snap.Histograms[key]
		if !ok {
			return fmt.Errorf("metrics snapshot lacks %s (client saw %d OKs)", key, ts.OK)
		}
		if hist.Count != int64(ts.OK) {
			return fmt.Errorf("%s count %d != client-side OK count %d", key, hist.Count, ts.OK)
		}
		serverP50 := hist.P50 * 1000 // seconds → ms
		clientP50 := ts.LatencyMS["p50"]
		if serverP50 > clientP50*4+10 || clientP50 > serverP50*4+10 {
			return fmt.Errorf("%s median disagrees: server %.1fms vs client %.1fms (tolerance ×4+10ms)",
				key, serverP50, clientP50)
		}
		fmt.Printf("smoke load: %s OK (count %d, p50 server %.1fms / client %.1fms)\n",
			tenant, hist.Count, serverP50, clientP50)
		want = append(want, fmt.Sprintf("serve_tenant_latency_seconds_bucket{tenant=%q", tenant))
	}
	slo, ok := snap.SLOs["serve.latency"]
	if !ok {
		return fmt.Errorf("metrics snapshot lacks the serve.latency SLO tracker")
	}
	if slo.TotalGood+slo.TotalBad == 0 {
		return fmt.Errorf("serve.latency SLO observed nothing under load")
	}
	fmt.Printf("smoke load: serve.latency SLO OK (objective %g, %d good / %d bad)\n",
		slo.Objective, slo.TotalGood, slo.TotalBad)
	if err := scrapeProm(url+"/metrics", want...); err != nil {
		return err
	}
	fmt.Println("smoke load: prom exposition OK")

	// Deadline-expired requests answer 504 while their tier execution
	// winds down in the background; read the trace only once the
	// server is idle, so every span tree in the ring is complete.
	err = poll(time.Now().Add(2*time.Minute), 500*time.Millisecond, func() error {
		var s snapshot
		if err := getJSON(url+"/metrics", &s); err != nil {
			return err
		}
		if n, q := s.Gauges["serve.inflight"], s.Gauges["serve.queue_depth"]; n != 0 || q != 0 {
			return fmt.Errorf("server did not quiesce: inflight %d, queued %d", n, q)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var tr chromeTrace
	if err := getJSON(url+"/trace", &tr); err != nil {
		return err
	}
	chain, track, err := spanChain(tr)
	if err != nil {
		return err
	}
	fmt.Printf("smoke load: trace OK (chain %s on %s)\n", strings.Join(chain, " → "), track)
	return nil
}

// sweepSpec is the sweep grid: 2 stacks × 2 models × 2 seeds on one
// array size — 8 cells, all on the cheap tiers so the check stays fast.
const sweepSpec = `{
  "name": "smoke",
  "sizes": [8],
  "stacks": [
    {"name": "clean", "stack": []},
    {"name": "faults", "stack": [
      {"kind": "stuck_at", "params": {"p_on": 0.05, "p_off": 0.05}},
      {"kind": "d2d_variation", "params": {"sigma": 0.2}}
    ]}
  ],
  "models": ["ideal", "analytical"],
  "seeds": [1, 2],
  "jobs": 1
}`

const sweepCells = 8

var sweepCountsRE = regexp.MustCompile(`sweep: executed=(\d+) skipped=(\d+) failed=(\d+)`)

// runSweep runs the grid to completion as the reference, starts it
// again with a per-cell delay, SIGKILLs that run mid-grid (a real
// kill -9, not a polite shutdown), and resumes it. The resume must
// skip exactly the checkpointed cells and execute exactly the rest —
// no cell runs twice — and every cell file and the summary must be
// byte-identical to the reference's.
func runSweep(h *harness) error {
	deadline := time.Now().Add(5 * time.Minute)
	bin, err := h.bin("./cmd/geniex-sweep")
	if err != nil {
		return err
	}
	work := filepath.Join(h.dir, "sweep")
	specPath := filepath.Join(work, "spec.json")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(specPath, []byte(sweepSpec), 0o644); err != nil {
		return err
	}

	refDir := filepath.Join(work, "ref")
	if out, err := exec.Command(bin, "-spec", specPath, "-out", refDir).CombinedOutput(); err != nil {
		return fmt.Errorf("reference run: %v\n%s", err, out)
	}
	if n := countCells(refDir); n != sweepCells {
		return fmt.Errorf("reference run checkpointed %d/%d cells", n, sweepCells)
	}

	vicDir := filepath.Join(work, "vic")
	victim := exec.Command(bin, "-spec", specPath, "-out", vicDir, "-cell-delay", "250ms")
	var vicOut bytes.Buffer
	victim.Stdout, victim.Stderr = &vicOut, &vicOut
	if err := victim.Start(); err != nil {
		return err
	}
	err = poll(deadline, 20*time.Millisecond, func() error {
		if countCells(vicDir) < 2 {
			return fmt.Errorf("timed out waiting for the victim to checkpoint cells")
		}
		return nil
	})
	stop(victim) // SIGKILL
	if err != nil {
		return fmt.Errorf("%w\n%s", err, vicOut.String())
	}
	done := countCells(vicDir)
	if done == 0 || done >= sweepCells {
		return fmt.Errorf("victim checkpointed %d/%d cells — kill landed outside the grid", done, sweepCells)
	}
	fmt.Printf("smoke sweep: killed victim with %d/%d cells checkpointed\n", done, sweepCells)

	out, err := exec.Command(bin, "-spec", specPath, "-out", vicDir, "-resume").CombinedOutput()
	if err != nil {
		return fmt.Errorf("resume run: %v\n%s", err, out)
	}
	m := sweepCountsRE.FindStringSubmatch(string(out))
	if m == nil {
		return fmt.Errorf("no accounting line in sweep output\n%s", out)
	}
	if m[3] != "0" {
		return fmt.Errorf("resume reported failed cells\n%s", out)
	}
	// The victim was SIGKILLed, so nothing was checkpointed after the
	// count above: the resume must execute exactly the remainder.
	var executed, skipped int
	fmt.Sscan(m[1], &executed)
	fmt.Sscan(m[2], &skipped)
	if skipped != done || executed != sweepCells-done {
		return fmt.Errorf("resume accounting: executed=%d skipped=%d, want %d/%d\n%s",
			executed, skipped, sweepCells-done, done, out)
	}
	if n := countCells(vicDir); n != sweepCells {
		return fmt.Errorf("resumed run left %d/%d cells", n, sweepCells)
	}

	names, err := filepath.Glob(filepath.Join(refDir, "cells", "*.json"))
	if err != nil {
		return err
	}
	for _, ref := range append(names, filepath.Join(refDir, "summary.json")) {
		rel := strings.TrimPrefix(ref, refDir)
		a, err := os.ReadFile(ref)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(vicDir + rel)
		if err != nil {
			return fmt.Errorf("resumed run missing %s: %w", rel, err)
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s differs between resumed and reference runs:\n%s\nvs\n%s", rel, a, b)
		}
	}
	fmt.Printf("smoke sweep: resume executed %d, skipped %d; all %d cell files byte-identical\n",
		executed, skipped, sweepCells)
	return nil
}

// countCells counts completed checkpoint files (atomic renames only —
// in-flight .tmp-* files don't match).
func countCells(dir string) int {
	names, _ := filepath.Glob(filepath.Join(dir, "cells", "*.json"))
	n := 0
	for _, f := range names {
		if !strings.HasPrefix(filepath.Base(f), ".") {
			n++
		}
	}
	return n
}

var registerRE = regexp.MustCompile(
	`obs\.New(?:Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec|SLO)\(\s*"([^"]+)"`)

// runCatalog greps every non-test Go file under cmd/ and internal/ for
// literal obs.New* metric registrations and requires each name to
// appear in DESIGN.md, so the metric catalog cannot silently rot.
func runCatalog(*harness) error {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		return err
	}
	names := map[string][]string{} // metric name → files registering it
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range registerRE.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = append(names[m[1]], path)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("found no obs metric registrations under cmd/ and internal/ — the grep pattern has rotted")
	}
	var missing []string
	for name, files := range names {
		if !strings.Contains(string(design), name) {
			sort.Strings(files)
			missing = append(missing, fmt.Sprintf("%s (registered in %s)", name, strings.Join(files, ", ")))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics registered but absent from the DESIGN.md catalog:\n  %s",
			strings.Join(missing, "\n  "))
	}
	fmt.Printf("smoke catalog: %d registered metric names all cataloged in DESIGN.md\n", len(names))
	return nil
}
