// Command loadgen drives geniex-serve with an open-loop request
// stream and emits a machine-readable summary: per-status and
// per-tier counts, retry/shed totals, overall and per-tenant latency
// percentiles, and the 5xx count the serve smoke check asserts on. The
// per-tenant view (OK counts + percentiles over 200s) is the
// client-side mirror of the server's serve.tenant.* metrics; the load
// smoke check asserts the two agree. Open-loop means requests fire
// on schedule regardless of how many are outstanding — the generator
// does not back off when the server slows, which is exactly the
// arrival pattern admission control exists for.
//
// Example:
//
//	loadgen -url http://127.0.0.1:8080 -qps 120 -duration 3s -tenants 3
//
// The summary JSON goes to stdout; -out additionally writes it to a
// file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

type summary struct {
	TargetQPS    float64            `json:"target_qps"`
	DurationS    float64            `json:"duration_s"`
	Requests     int                `json:"requests"`
	StatusCounts map[string]int     `json:"status_counts"`
	TierCounts   map[string]int     `json:"tier_counts"`
	TotalRetries int                `json:"total_retries"`
	TotalShed    int                `json:"total_shed"`
	FiveXX       int                `json:"fivexx"`
	Transport    int                `json:"transport_errors"`
	LatencyMS    map[string]float64 `json:"latency_ms"`
	// Tenants is the client-side per-tenant view: request/OK counts
	// and latency percentiles over served (200) responses only, so it
	// is directly comparable with the server's
	// serve.tenant.latency_seconds{tenant} histograms (the load smoke
	// check asserts the two views agree).
	Tenants map[string]tenantSummary `json:"tenants"`
}

type tenantSummary struct {
	Requests  int                `json:"requests"`
	OK        int                `json:"ok"`
	LatencyMS map[string]float64 `json:"latency_ms"`
}

type result struct {
	tenant  string
	status  int
	tier    string
	retries int
	shed    int
	latency time.Duration
	err     error
}

func main() {
	var (
		base     = flag.String("url", "http://127.0.0.1:8080", "server base URL")
		qps      = flag.Float64("qps", 50, "request rate")
		duration = flag.Duration("duration", 3*time.Second, "how long to generate load")
		batch    = flag.Int("batch", 1, "input rows per request")
		tenants  = flag.Int("tenants", 3, "distinct tenant names to round-robin")
		deadline = flag.Int64("deadline-ms", 0, "per-request deadline_ms field (0 = server default)")
		out      = flag.String("out", "", "also write the JSON summary to this file")
	)
	flag.Parse()
	if err := run(*base, *qps, *duration, *batch, *tenants, *deadline, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(base string, qps float64, duration time.Duration, batch, tenants int, deadlineMS int64, out string) error {
	if qps <= 0 {
		return fmt.Errorf("qps must be positive")
	}
	in, err := probeWidth(base)
	if err != nil {
		return fmt.Errorf("probing input width: %w", err)
	}

	body := func(tenant string) []byte {
		rows := make([][]float64, batch)
		for i := range rows {
			row := make([]float64, in)
			for j := range row {
				row[j] = 0.1 * float64((i+j)%7)
			}
			rows[i] = row
		}
		b, _ := json.Marshal(map[string]any{
			"tenant": tenant, "inputs": rows, "deadline_ms": deadlineMS,
		})
		return b
	}

	client := &http.Client{Timeout: 30 * time.Second}
	interval := time.Duration(float64(time.Second) / qps)
	stop := time.Now().Add(duration)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var results []result

	tick := time.NewTicker(interval)
	defer tick.Stop()
	n := 0
	for now := range tick.C {
		if now.After(stop) {
			break
		}
		tenant := fmt.Sprintf("tenant-%d", n%tenants)
		n++
		wg.Add(1)
		go func(tenant string, payload []byte) {
			defer wg.Done()
			r := fire(client, base, payload)
			r.tenant = tenant
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}(tenant, body(tenant))
	}
	wg.Wait()

	s := summarize(qps, duration, results)
	enc, _ := json.MarshalIndent(s, "", "  ")
	fmt.Println(string(enc))
	if out != "" {
		if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func fire(client *http.Client, base string, payload []byte) result {
	start := time.Now()
	resp, err := client.Post(base+"/v1/infer", "application/json", bytes.NewReader(payload))
	if err != nil {
		return result{err: err, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	r := result{status: resp.StatusCode, latency: time.Since(start)}
	if resp.StatusCode == http.StatusOK {
		var body struct {
			Tier    string `json:"tier"`
			Retries int    `json:"retries"`
			Shed    int    `json:"shed"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err == nil {
			r.tier, r.retries, r.shed = body.Tier, body.Retries, body.Shed
		}
	}
	return r
}

func probeWidth(base string) (int, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		In int `json:"in"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	if h.In <= 0 {
		return 0, fmt.Errorf("healthz reports no input width")
	}
	return h.In, nil
}

func summarize(qps float64, duration time.Duration, results []result) summary {
	s := summary{
		TargetQPS:    qps,
		DurationS:    duration.Seconds(),
		Requests:     len(results),
		StatusCounts: map[string]int{},
		TierCounts:   map[string]int{},
		LatencyMS:    map[string]float64{},
		Tenants:      map[string]tenantSummary{},
	}
	var lats []time.Duration
	servedLats := map[string][]time.Duration{}
	for _, r := range results {
		if r.err != nil {
			s.Transport++
			continue
		}
		ts := s.Tenants[r.tenant]
		ts.Requests++
		s.StatusCounts[fmt.Sprintf("%d", r.status)]++
		if r.status >= 500 {
			s.FiveXX++
		}
		if r.status == http.StatusOK {
			s.TierCounts[r.tier]++
			s.TotalRetries += r.retries
			s.TotalShed += r.shed
			ts.OK++
			servedLats[r.tenant] = append(servedLats[r.tenant], r.latency)
		}
		s.Tenants[r.tenant] = ts
		lats = append(lats, r.latency)
	}
	s.LatencyMS = percentiles(lats)
	for tenant, tl := range servedLats {
		ts := s.Tenants[tenant]
		ts.LatencyMS = percentiles(tl)
		s.Tenants[tenant] = ts
	}
	return s
}

// percentiles summarizes a latency sample as ms percentiles; empty
// input yields an empty map.
func percentiles(lats []time.Duration) map[string]float64 {
	out := map[string]float64{}
	if len(lats) == 0 {
		return out
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	out["p50"] = pct(0.50)
	out["p90"] = pct(0.90)
	out["p99"] = pct(0.99)
	out["max"] = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	return out
}
