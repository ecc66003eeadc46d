// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload against the layers' public functions:
//
//	sim-circuit    funcsim.Sim at the circuit tier, one image per op
//	serve-geniex   serve.Server over loopback HTTP at the GENIEx tier
//	surrogate-fit  core.Generate + core.Model.Train, one fit per op
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sim-circuit --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs half the window untraced and half with the benchmark's own
// spans, and reports the per-layer metrics, self time per span and the
// tracing overhead. Human-readable lines come first; the last line of
// standard output is the JSON result. README.md defines every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupRuns is how many times each workload sets up; setup_s is their
// median, so one slow set-up (e.g. the first after an idle host) does
// not move it.
const setupRuns = 3

var workloads = map[string]func(*bench) error{
	"sim-circuit":   simCircuit,
	"serve-geniex":  serveGeniex,
	"surrogate-fit": surrogateFit,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench carries one run's settings and what it has measured so far.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool

	attempted, failed int
	metrics           map[string]metric
}

func main() {
	var (
		workload = flag.String("workload", "", "sim-circuit, serve-geniex or surrogate-fit")
		seed     = flag.Uint64("seed", 1, "workload seed: fixes every input and the op sequence")
		seconds  = flag.Int("seconds", 30, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, traced: *trace == 1,
		window:  time.Duration(*seconds) * time.Second,
		metrics: map[string]metric{},
	}
	meta, _ := json.Marshal(map[string]any{"meta": hostMeta(b.workload, b.seed, b.traced)})
	fmt.Println(string(meta))
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-28s %14.6g %s\n", name, v, unit)
}

func (b *bench) note(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

// check counts one run-level correctness check. A failed check is
// counted in the result, never skipped.
func (b *bench) check(name string, ok bool, detail string) {
	b.attempted++
	status := "ok"
	if !ok {
		b.failed++
		status = "FAILED"
	}
	b.note("check %-40s %s (%s)", name, status, detail)
}

// timeSetup runs set-up setupRuns times and records the median as
// setup_s. Each call must replace the previous set-up's state, so the
// last one is what the run uses.
func (b *bench) timeSetup(setup func() error) error {
	var ds []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	runtime.GC()
	b.note("set-up runs: %.3f s", ds)
	if !b.traced {
		b.set("setup_s", "s", median(ds))
	}
	return nil
}

// subSeed derives the k-th input seed of a workload seed (splitmix64).
func subSeed(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opOut is what one op reports: when its timed part ended, which input
// it ran, and whether its output passed the op's check.
type opOut struct {
	end   time.Time
	input string
	ok    bool
}

// opFunc runs the seq-th op of one caller. The window's context is
// cancelled when the window closes, so a long op can stop early; such
// an op is cut off and never counts.
type opFunc func(ctx context.Context, caller, seq int) opOut

type opRecord struct {
	opOut
	start time.Time
	work  counts // per-op counter deltas; single-caller windows only
}

// windowResult is one closed-loop measurement window.
type windowResult struct {
	ops       []opRecord    // ops that ended inside the window
	span      time.Duration // first op start to last counted op end
	wall      time.Duration // window length
	deadline  time.Time
	delta     counts    // obs counters from the window's start until every op returned
	proc      procStats // process costs over the window's wall time
	cutOff    int
	okCount   int
	latencyMS []float64
	opsPerS   float64
	perInput  inputCounts // work counters per input; single-caller windows only
	mismatch  int         // ops whose work differed from an earlier op on the same input
}

// runWindow runs a closed loop of callers for d. Each caller starts
// its next op when the previous one returns, until the window ends.
func runWindow(d time.Duration, callers int, fn opFunc) *windowResult {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &windowResult{wall: d, perInput: inputCounts{}}
	c0, p0 := readCounts(), readProc()
	deadline := time.Now().Add(d)
	w.deadline = deadline
	var edge sync.WaitGroup
	edge.Add(1)
	timer := time.AfterFunc(d, func() {
		defer edge.Done()
		w.proc = readProc().minus(p0)
		cancel()
	})
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := readCounts()
			for seq := 0; ; seq++ {
				s := time.Now()
				if !s.Before(deadline) {
					return
				}
				out := fn(ctx, c, seq)
				rec := opRecord{opOut: out, start: s}
				if callers == 1 {
					now := readCounts()
					rec.work, prev = now.minus(prev), now
				}
				mu.Lock()
				if out.end.After(deadline) {
					w.cutOff++
				} else {
					w.ops = append(w.ops, rec)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.delta = readCounts().minus(c0)
	if timer.Stop() {
		// The callers saw the deadline pass before the timer fired.
		w.proc = readProc().minus(p0)
	} else {
		edge.Wait()
	}
	var first, last time.Time
	for i, r := range w.ops {
		if i == 0 || r.start.Before(first) {
			first = r.start
		}
		if r.end.After(last) {
			last = r.end
		}
		if r.ok {
			w.okCount++
		}
		w.latencyMS = append(w.latencyMS, float64(r.end.Sub(r.start).Nanoseconds())/1e6)
		if r.work != nil {
			s := r.work.work()
			if prev, ok := w.perInput[r.input]; ok && prev != s {
				w.mismatch++
			}
			w.perInput[r.input] = s
		}
	}
	w.span = last.Sub(first)
	if len(w.ops) > 0 && w.span > 0 {
		w.opsPerS = float64(len(w.ops)) / w.span.Seconds()
	}
	return w
}

// countsPerOp is the mean obs counter delta of one op. A single caller
// has exact per-op deltas; with several callers every op that started
// in the window, cut off or not, must run to completion, so the
// window's delta divides evenly among them.
func (w *windowResult) countsPerOp() counts {
	per := counts{}
	if len(w.ops) > 0 && w.ops[0].work != nil {
		for _, r := range w.ops {
			for k, v := range r.work {
				per[k] += v
			}
		}
		for k := range per {
			per[k] /= float64(len(w.ops))
		}
		return per
	}
	n := float64(len(w.ops) + w.cutOff)
	for k, v := range w.delta {
		per[k] = ratio(v, n)
	}
	return per
}

func (p procStats) minus(q procStats) procStats {
	return procStats{cpu: p.cpu - q.cpu, allocBytes: p.allocBytes - q.allocBytes,
		gcCPU: p.gcCPU - q.gcCPU, usedCPU: p.usedCPU - q.usedCPU,
		hostTicks: p.hostTicks - q.hostTicks, stealTicks: p.stealTicks - q.stealTicks}
}

// counted keeps the spans of ops that ended inside the window: an op's
// root span has the op's id, and an op cut off at the window's end
// counts in no metric, its spans included.
func (w *windowResult) counted(spans []span) []span {
	in := map[int64]bool{}
	for _, s := range spans {
		if s.id == s.op && !s.end.After(w.deadline) {
			in[s.op] = true
		}
	}
	var out []span
	for _, s := range spans {
		if in[s.op] {
			out = append(out, s)
		}
	}
	return out
}

// perOp converts a process cost over the window's wall time into a
// per-op figure through rates, so an op cut off at the window's end
// does not skew it.
func (w *windowResult) perOp(total float64) float64 {
	return ratio(total/w.wall.Seconds(), w.opsPerS)
}

// countOps counts a window's ops into the result: each op is one
// attempt, and one that failed its check is one failure.
func (b *bench) countOps(w *windowResult) {
	b.attempted += len(w.ops)
	b.failed += len(w.ops) - w.okCount
	b.note("window: %d ops in %.3f s (%d cut off at the window's end), %d passed their check",
		len(w.ops), w.span.Seconds(), w.cutOff, w.okCount)
	b.note("latency: min %.3f, q1 %.3f, median %.3f, q3 %.3f, max %.3f ms",
		quantile(w.latencyMS, 0), quantile(w.latencyMS, 0.25), median(w.latencyMS), quantile(w.latencyMS, 0.75), quantile(w.latencyMS, 1))
	if p := highestPercentile(len(w.latencyMS)); p > 0 {
		b.note("tail latency: p%.1f = %.3f ms, the highest percentile with ≥%d of the %d samples beyond it",
			p, quantile(w.latencyMS, p/100), tailSamples, len(w.latencyMS))
	} else {
		b.note("tail latency: none; %d samples leave fewer than %d beyond any percentile", len(w.latencyMS), tailSamples)
	}
	b.note("host: %.1f%% of the host's CPU time was stolen by the hypervisor during the window",
		100*ratio(w.proc.stealTicks, w.proc.hostTicks))
	if len(w.perInput) > 0 {
		b.check("work-repeats-per-input", w.mismatch == 0, fmt.Sprintf("%d mismatches", w.mismatch))
	}
}

// endToEnd counts a window's ops and records the end-to-end metrics
// every workload shares.
func (b *bench) endToEnd(w *windowResult) {
	b.countOps(w)
	b.set("ops_per_s", "1/s", w.opsPerS)
	b.set("p50_ms", "ms", median(w.latencyMS))
	b.set("ok_share", "share", ratio(float64(w.okCount), float64(len(w.ops))))
	b.set("max_rss_mb", "MB", maxRSSMB())
}

// checkInputs compares per-input work counts of two executions of the
// same inputs: the traced and untraced halves of a traced run. Equal
// counts show the tracing wrappers change no work.
func (b *bench) checkInputs(untraced, traced inputCounts) {
	same, n := true, 0
	for k, v := range traced {
		if u, ok := untraced[k]; ok {
			n++
			if u != v {
				same = false
				b.note("counts differ for %s: untraced %s, traced %s", k, u, v)
			}
		}
	}
	b.check("traced-counts-equal-untraced", same && n > 0, fmt.Sprintf("%d inputs compared", n))
}

func (b *bench) printInputs(ic inputCounts) {
	keys := make([]string, 0, len(ic))
	for k := range ic {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.note("counts %s: %s", k, ic[k])
	}
}

// perLayer records every per-layer metric. Layers a workload does not
// exercise report 0, which is itself checked where a layer must be
// bypassed.
func (b *bench) perLayer(w *windowResult, spans []span, extra map[string]float64) {
	spans = w.counted(spans)
	self := selfTimes(spans)
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s)
	}
	durMS := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, ms(s.dur()))
		}
		return xs
	}
	selfMS := func(name string) []float64 {
		var xs []float64
		for _, d := range self[name] {
			xs = append(xs, ms(d))
		}
		return xs
	}

	// Self time per span name, median per op.
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.note("self time %-18s median %10.3f ms per op over %d ops", n, median(selfMS(n)), len(self[n]))
	}

	// Tiles: Σ busy time per forward pass, and how full the pool was.
	busy := map[int64]time.Duration{}
	for _, t := range byName["xbar.tile"] {
		busy[t.op] += t.dur()
	}
	var tileBusy, poolUtil []float64
	for _, f := range byName["funcsim.forward"] {
		if bt := busy[f.op]; bt > 0 {
			tileBusy = append(tileBusy, ms(bt))
			poolUtil = append(poolUtil, bt.Seconds()/(f.dur().Seconds()*float64(runtime.GOMAXPROCS(0))))
		}
	}

	d, per := w.delta, w.countsPerOp()
	newton := d[cNewtonIters]
	var rescues float64
	for _, n := range rescueCounters {
		rescues += per[n]
	}
	for _, m := range []struct {
		name, unit string
		v          float64
	}{
		{"serve.pre_ms", "ms", extra["serve.pre_ms"]},
		{"serve.post_ms", "ms", extra["serve.post_ms"]},
		{"serve.transport_ms", "ms", extra["serve.transport_ms"]},
		{"serve.degraded_share", "share", extra["serve.degraded_share"]},
		{"funcsim.forward_ms", "ms", median(durMS("funcsim.forward"))},
		{"funcsim.self_ms", "ms", median(selfMS("funcsim.forward"))},
		{"funcsim.pool_util", "share", median(poolUtil)},
		{"funcsim.mvm_calls", "count", per[cMVMCalls]},
		{"funcsim.crossbar_ops", "count", per[cCrossbarOps]},
		{"funcsim.freelist_hit_share", "share", ratio(d[cFreeHits], d[cFreeHits]+d[cFreeMisses])},
		{"xbar.tile_busy_ms", "ms", median(tileBusy)},
		{"xbar.solves", "count", per[cSolves]},
		{"xbar.newton_per_solve", "ratio", ratio(newton, d[cSolves])},
		{"xbar.cg_per_newton", "ratio", ratio(d[cCGIters], newton)},
		{"xbar.factor_builds", "count", per[cFactorBuilds]},
		{"xbar.factor_reuse_share", "share", ratio(d[cFactorReuses], d[cFactorReuses]+d[cFactorBuilds])},
		{"xbar.rescues", "count", rescues},
		{"core.label_ms", "ms", median(durMS("core.generate"))},
		{"core.train_ms", "ms", median(durMS("core.train"))},
		{"runtime.cpu_ms_per_op", "ms", w.perOp(ms(w.proc.cpu))},
		{"runtime.alloc_kb_per_op", "KB", w.perOp(w.proc.allocBytes / 1024)},
		{"runtime.gc_cpu_share", "share", ratio(w.proc.gcCPU, w.proc.usedCPU)},
	} {
		b.set(m.name, m.unit, m.v)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceOverhead reports how much slower the traced half ran.
func (b *bench) traceOverhead(untraced, traced *windowResult) {
	b.note("tracing overhead: untraced %.4g ops/s, traced %.4g ops/s (%+.1f%%)",
		untraced.opsPerS, traced.opsPerS, 100*(ratio(untraced.opsPerS, traced.opsPerS)-1))
}

// writeTrace saves the traced half's spans as Chrome trace-event JSON
// under .bench_build/ in the working directory.
func (b *bench) writeTrace(tr *tracer) error {
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := writeChrome(f, tr.epoch, tr.snapshot())
	if err := errors.Join(werr, f.Close()); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	b.note("trace: wrote %s", path)
	return nil
}

// finite reports whether v is a usable number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
