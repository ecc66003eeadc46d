// Command loadsmoke is the end-to-end gate for per-tenant
// observability: it launches geniex-serve with a circuit-backed
// ladder and an armed latency SLO, drives it with scripts/loadgen
// (several tenants), and then cross-checks three views of the same
// traffic:
//
//   - Metrics: the server's serve.tenant.latency_seconds{tenant}
//     histograms must agree with loadgen's client-side per-tenant
//     view — exactly on served-request counts, and within bucket
//     quantization tolerance on the median latency.
//   - Prometheus exposition: /metrics?format=prom must carry the
//     per-tenant bucket series and the serve.latency SLO burn-rate
//     gauges.
//   - Trace: /trace must export a parented span tree reaching from a
//     circuit solve up through tile, MVM, and forward spans to a
//     serve.request root on a per-tenant track.
//
// It exits 0 on success and 1 with a diagnosis otherwise. Run it via
// `make load-smoke` (check.sh includes it).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("loadsmoke: PASS")
}

func run() error {
	// A circuit-backed ladder so the trace tree includes real solver
	// spans; the 8×8 seeded circuit tier keeps per-request cost
	// tolerable. The latency SLO is armed with a generous target — the
	// gate checks plumbing, not tail latency.
	cmd := exec.Command("go", "run", "./cmd/geniex-serve",
		"-addr", "127.0.0.1:0",
		"-tiers", "circuit,ideal",
		"-train", "48", "-epochs", "1", "-channels", "4", "-size", "8",
		"-max-inflight", "4", "-tenant-queue", "16",
		"-deadline", "10s", "-max-deadline", "15s",
		"-slo-latency-target", "8s", "-slo-latency-objective", "0.9")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting geniex-serve: %w", err)
	}
	defer func() {
		if cmd.Process != nil {
			syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		}
		cmd.Wait()
	}()

	addrCh := make(chan string, 1)
	go func() {
		re := regexp.MustCompile(`serve: listening on (http://\S+)`)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println(line)
			if m := re.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()

	var url string
	select {
	case url = <-addrCh:
	case <-time.After(3 * time.Minute):
		return fmt.Errorf("geniex-serve never printed its listen address")
	}

	sumPath, err := os.CreateTemp("", "loadsmoke-summary-*.json")
	if err != nil {
		return err
	}
	sumFile := sumPath.Name()
	sumPath.Close()
	defer os.Remove(sumFile)

	// Modest open-loop load: enough traffic for every tenant's
	// histogram to fill, low enough that the circuit tier serves most
	// of it rather than shedding everything to the floor.
	lg := exec.Command("go", "run", "./scripts/loadgen",
		"-url", url, "-qps", "10", "-duration", "3s", "-tenants", "3",
		"-out", sumFile)
	lg.Stdout = os.Stdout
	lg.Stderr = os.Stderr
	if err := lg.Run(); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}

	client := summaryFromFile(sumFile)
	if client == nil {
		return fmt.Errorf("loadgen summary %s is unreadable", sumFile)
	}
	if len(client.Tenants) < 3 {
		return fmt.Errorf("loadgen reports %d tenants, want 3", len(client.Tenants))
	}

	if err := checkMetrics(url, client); err != nil {
		return err
	}
	if err := checkProm(url, client); err != nil {
		return err
	}
	// Deadline-expired requests answer 504 while their tier execution
	// winds down in the background; scrape the trace only once the
	// server is idle, so every span tree in the ring is complete.
	if err := awaitQuiesce(url, 2*time.Minute); err != nil {
		return err
	}
	return checkTrace(url)
}

// awaitQuiesce polls the inflight/queue-depth gauges until the server
// has no request work outstanding.
func awaitQuiesce(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			return err
		}
		var snap struct {
			Gauges map[string]int64 `json:"gauges"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("malformed metrics snapshot: %w", err)
		}
		if snap.Gauges["serve.inflight"] == 0 && snap.Gauges["serve.queue_depth"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not quiesce: inflight %d, queued %d",
				snap.Gauges["serve.inflight"], snap.Gauges["serve.queue_depth"])
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// loadgen's summary shape (only the fields the gate reads).
type clientSummary struct {
	Requests int `json:"requests"`
	Tenants  map[string]struct {
		Requests  int                `json:"requests"`
		OK        int                `json:"ok"`
		LatencyMS map[string]float64 `json:"latency_ms"`
	} `json:"tenants"`
}

func summaryFromFile(path string) *clientSummary {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var s clientSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil
	}
	return &s
}

// snapshot mirrors the slices of obs.SnapshotData the gate reads.
type snapshot struct {
	Histograms map[string]struct {
		Count int64   `json:"count"`
		P50   float64 `json:"p50"`
	} `json:"histograms"`
	SLOs map[string]struct {
		Objective float64 `json:"objective"`
		TotalGood int64   `json:"total_good"`
		TotalBad  int64   `json:"total_bad"`
	} `json:"slos"`
}

// checkMetrics asserts the server-side per-tenant histograms agree
// with the client-side view: the serve.tenant.latency_seconds{tenant}
// count equals the tenant's 200 count exactly (the server observes
// that histogram only on served responses), and the medians agree
// within histogram bucket quantization (LatencyBuckets grow ×4 per
// bucket) plus a constant floor for client-side HTTP overhead.
func checkMetrics(url string, client *clientSummary) error {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("malformed metrics snapshot: %w", err)
	}

	for tenant, ts := range client.Tenants {
		key := fmt.Sprintf("serve.tenant.latency_seconds{tenant=%q}", tenant)
		h, ok := snap.Histograms[key]
		if ts.OK == 0 {
			continue // nothing served; the series may legitimately be absent
		}
		if !ok {
			return fmt.Errorf("metrics snapshot lacks %s (client saw %d OKs)", key, ts.OK)
		}
		if h.Count != int64(ts.OK) {
			return fmt.Errorf("%s count %d != client-side OK count %d", key, h.Count, ts.OK)
		}
		serverP50 := h.P50 * 1000 // seconds → ms
		clientP50 := ts.LatencyMS["p50"]
		if serverP50 > clientP50*4+10 || clientP50 > serverP50*4+10 {
			return fmt.Errorf("%s median disagrees: server %.1fms vs client %.1fms (tolerance ×4+10ms)",
				key, serverP50, clientP50)
		}
		fmt.Printf("loadsmoke: %s OK (count %d, p50 server %.1fms / client %.1fms)\n",
			tenant, h.Count, serverP50, clientP50)
	}

	slo, ok := snap.SLOs["serve.latency"]
	if !ok {
		return fmt.Errorf("metrics snapshot lacks the serve.latency SLO tracker")
	}
	if slo.TotalGood+slo.TotalBad == 0 {
		return fmt.Errorf("serve.latency SLO observed nothing under load")
	}
	fmt.Printf("loadsmoke: serve.latency SLO OK (objective %g, %d good / %d bad)\n",
		slo.Objective, slo.TotalGood, slo.TotalBad)
	return nil
}

// checkProm asserts the Prometheus exposition carries the per-tenant
// bucket series and the SLO burn-rate gauges.
func checkProm(url string, client *clientSummary) error {
	resp, err := http.Get(url + "/metrics?format=prom")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return fmt.Errorf("prom endpoint served %q, want the versioned text exposition content type", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(data)
	for tenant, ts := range client.Tenants {
		if ts.OK == 0 {
			continue
		}
		series := fmt.Sprintf("serve_tenant_latency_seconds_bucket{tenant=%q", tenant)
		if !strings.Contains(text, series) {
			return fmt.Errorf("prom exposition lacks %s...}", series)
		}
	}
	for _, line := range []string{
		`obs_slo_burn_rate{slo="serve.latency"}`,
		`obs_slo_objective{slo="serve.latency"}`,
		"# TYPE serve_tenant_latency_seconds histogram",
	} {
		if !strings.Contains(text, line) {
			return fmt.Errorf("prom exposition lacks %q", line)
		}
	}
	fmt.Println("loadsmoke: prom exposition OK")
	return nil
}

// checkTrace fetches the span ring as Chrome trace JSON and walks the
// parent chain from the newest circuit solve span up to its
// serve.request root, asserting the expected intermediate spans and a
// per-tenant track name. The ring evicts oldest-first and parents end
// after children, so the newest solve's ancestors are always retained.
func checkTrace(url string) error {
	resp, err := http.Get(url + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("trace endpoint returned invalid JSON: %w", err)
	}

	id := func(args map[string]any, key string) int64 {
		if f, ok := args[key].(float64); ok {
			return int64(f)
		}
		return 0
	}
	spans := map[int64]span{}
	tracks := map[int64]string{} // tid → thread_name (per-tenant tracks)
	type candidate struct {
		id int64
		ts float64
	}
	var solves []candidate
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			if n, ok := e.Args["name"].(string); ok {
				tracks[e.Tid] = n
			}
			continue
		}
		sid := id(e.Args, "span_id")
		if sid == 0 {
			continue
		}
		spans[sid] = span{name: e.Name, parent: id(e.Args, "parent_id"), tid: e.Tid}
		if e.Name == "xbar.batch.solve" {
			solves = append(solves, candidate{sid, e.Ts})
		}
	}
	if len(solves) == 0 {
		return fmt.Errorf("trace holds no xbar.batch.solve span (circuit tier never served?)")
	}
	sort.Slice(solves, func(i, j int) bool { return solves[i].ts > solves[j].ts })

	// Walk each solve → ... → root, newest first; accept the first
	// complete chain. A quiesced server's newest chains are always
	// complete (parents end — and so are recorded — after children),
	// so older, partially evicted chains only arise after the ring
	// wrapped mid-run.
	var lastErr error
	for _, c := range solves {
		chain, root, err := walk(spans, c.id)
		if err != nil {
			lastErr = err
			continue
		}
		for _, want := range []string{"xbar.batch.solve", "funcsim.tile", "funcsim.mvm", "funcsim.forward", "serve.request"} {
			found := false
			for _, got := range chain {
				if got == want {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("span chain %v lacks %s", chain, want)
			}
		}
		if root.name != "serve.request" {
			return fmt.Errorf("span chain root is %s, want serve.request (chain %v)", root.name, chain)
		}
		track := tracks[root.tid]
		if !strings.HasPrefix(track, "tenant:") {
			return fmt.Errorf("serve.request root rides track %q, want a tenant:* track", track)
		}
		fmt.Printf("loadsmoke: trace OK (chain %s on %s)\n", strings.Join(chain, " → "), track)
		return nil
	}
	return fmt.Errorf("no solve span has a complete parent chain: %w", lastErr)
}

// span is one exported X event's identity: name, parent link, track.
type span struct {
	name   string
	parent int64
	tid    int64
}

// walk follows parent links from sid to a root, returning the chain
// of span names.
func walk(spans map[int64]span, sid int64) ([]string, span, error) {
	var chain []string
	var root span
	cur := sid
	for i := 0; i < 32; i++ {
		s, ok := spans[cur]
		if !ok {
			return nil, root, fmt.Errorf("span chain broken at id %d (after %s)", cur, strings.Join(chain, " → "))
		}
		chain = append(chain, s.name)
		root = s
		if s.parent == 0 {
			return chain, root, nil
		}
		cur = s.parent
	}
	return nil, root, fmt.Errorf("span chain deeper than 32 (cycle?): %s", strings.Join(chain, " → "))
}
