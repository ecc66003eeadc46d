// Command smoke is the repository's end-to-end gate harness. Each
// check drives real processes (or, for calib, a live engine) and
// asserts a contract the unit tests cannot reach:
//
//   - obs: a probed funcsim-run serves live solver, tile and probe
//     histograms and a well-formed Prometheus exposition, and writes a
//     well-formed, parented Chrome trace file.
//   - serve: geniex-serve under a chaotic overload burst answers only
//     200/429, and its retry and shed counters engage.
//   - sweep: a SIGKILLed sweep resumes byte-identical to an
//     uninterrupted one, with no cell run twice.
//   - calib: online calibration ends ≥ 2× closer to the circuit than a
//     frozen surrogate, with zero failed MVMs across hot-swaps.
//   - load: geniex-serve's per-tenant metrics agree with loadgen's
//     client view, and /trace holds a solve → serve.request chain.
//   - catalog: every registered obs metric is cataloged in DESIGN.md
//     and read by a test, a smoke check or perfbench.
//
// Run it from the repository root. With no arguments it runs every
// check; arguments select checks by name:
//
//	go run ./scripts/smoke [obs|serve|sweep|calib|load|catalog ...]
//
// It prints "smoke <check>: PASS" per check and exits 1 with a
// diagnosis at the first failure (2 on an unknown check name).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

type check struct {
	name string
	run  func(*harness) error
}

var checks = []check{
	{"obs", runObs},
	{"serve", runServe},
	{"sweep", runSweep},
	{"calib", runCalib},
	{"load", runLoad},
	{"catalog", runCatalog},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(names []string) int {
	selected := checks
	if len(names) > 0 {
		selected = nil
		for _, name := range names {
			i := slices.IndexFunc(checks, func(c check) bool { return c.name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "smoke: unknown check %q\n", name)
				return 2
			}
			selected = append(selected, checks[i])
		}
	}
	dir, err := os.MkdirTemp("", "smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	h := &harness{dir: dir, bins: map[string]string{}}
	for _, c := range selected {
		if err := c.run(h); err != nil {
			fmt.Fprintf(os.Stderr, "smoke %s: FAIL: %v\n", c.name, err)
			return 1
		}
		fmt.Printf("smoke %s: PASS\n", c.name)
	}
	return 0
}

// harness owns the temp dir the checks build their binaries into and
// keep their scratch files in.
type harness struct {
	dir  string
	bins map[string]string // package path → built binary
}

// bin builds the main package pkg into the temp dir on first use and
// returns the binary's path. Checks exec the binary itself, so a kill
// lands on the real process rather than on a `go run` wrapper.
func (h *harness) bin(pkg string) (string, error) {
	if path, ok := h.bins[pkg]; ok {
		return path, nil
	}
	path := filepath.Join(h.dir, filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", pkg, err, out)
	}
	h.bins[pkg] = path
	return path, nil
}

// start execs pkg's binary with args, echoes its stdout, and waits for
// the first line matching addrRE, whose first group is the URL the
// child serves on. The caller must stop the child.
func (h *harness) start(pkg string, addrRE *regexp.Regexp, args ...string) (*exec.Cmd, string, error) {
	bin, err := h.bin(pkg)
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Println(sc.Text())
			if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case url, ok := <-addr:
		if ok {
			return cmd, url, nil
		}
		err = fmt.Errorf("%s exited before printing its address", filepath.Base(pkg))
	case <-time.After(3 * time.Minute):
		err = fmt.Errorf("%s never printed its address", filepath.Base(pkg))
	}
	stop(cmd)
	return nil, "", err
}

// stop kills a child and reaps it. Both errors are expected: the child
// may have exited already, and a killed child's Wait reports the kill.
func stop(cmd *exec.Cmd) {
	cmd.Process.Kill()
	cmd.Wait()
}

// poll calls f every interval until it succeeds or the deadline
// passes, then reports f's last error.
func poll(deadline time.Time, interval time.Duration, f func() error) error {
	for {
		err := f()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deadline exceeded; last state: %w", err)
		}
		time.Sleep(interval)
	}
}

// snapshot mirrors the wire shape of obs.SnapshotData the checks read.
type snapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count  int64     `json:"count"`
		Bounds []float64 `json:"bounds"`
		Counts []int64   `json:"counts"`
		P50    float64   `json:"p50"`
	} `json:"histograms"`
	SLOs map[string]struct {
		Objective float64 `json:"objective"`
		TotalGood int64   `json:"total_good"`
		TotalBad  int64   `json:"total_bad"`
	} `json:"slos"`
}

// getJSON fetches url, requires a 200 with a JSON content type, and
// decodes the body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		return fmt.Errorf("%s served %q, want application/json", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("malformed JSON from %s: %w", url, err)
	}
	return nil
}

// scrapeProm fetches the Prometheus exposition of the metrics endpoint
// url and checks the versioned content type, then the line grammar,
// then that every string in want appears.
func scrapeProm(url string, want ...string) error {
	resp, err := http.Get(url + "?format=prom")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("prom endpoint returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return fmt.Errorf("prom endpoint served %q, want the versioned text exposition content type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(body)
	if err := promGrammar(text); err != nil {
		return err
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			return fmt.Errorf("prom exposition lacks %q", w)
		}
	}
	return nil
}

// loadSummary mirrors the fields of loadgen's JSON summary the checks
// read.
type loadSummary struct {
	Requests     int            `json:"requests"`
	StatusCounts map[string]int `json:"status_counts"`
	TotalRetries int            `json:"total_retries"`
	TotalShed    int            `json:"total_shed"`
	FiveXX       int            `json:"fivexx"`
	Transport    int            `json:"transport_errors"`
	Tenants      map[string]struct {
		OK        int                `json:"ok"`
		LatencyMS map[string]float64 `json:"latency_ms"`
	} `json:"tenants"`
}

// loadgen drives the server at url with scripts/loadgen — qps
// open-loop requests per second for 3 s, round-robin over three
// tenants — and decodes the summary it prints.
func (h *harness) loadgen(url string, qps int) (*loadSummary, error) {
	bin, err := h.bin("./scripts/loadgen")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-url", url, "-qps", strconv.Itoa(qps), "-duration", "3s", "-tenants", "3")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	var sum loadSummary
	if err := json.Unmarshal(out, &sum); err != nil {
		return nil, fmt.Errorf("loadgen summary is not valid JSON: %w", err)
	}
	return &sum, nil
}
