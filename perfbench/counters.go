package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"geniex/internal/obs"
)

// counts holds the obs counters the per-layer metrics read: plain
// counters by name, and the sums of the solver's iteration histograms.
type counts map[string]float64

const (
	cMVMCalls     = "funcsim.mvm.calls"
	cCrossbarOps  = "funcsim.mvm.crossbar_ops"
	cFreeHits     = "funcsim.run.freelist_hits"
	cFreeMisses   = "funcsim.run.freelist_misses"
	cSolves       = "xbar.solver.solves"
	cFactorBuilds = "xbar.solver.factor.builds"
	cFactorReuses = "xbar.solver.factor.reuses"
	cNewtonIters  = "xbar.solver.newton_iters"
	cCGIters      = "xbar.solver.cg_iters"
)

// rescueCounters are the solver's wasted-work events: a damped or
// source-stepped rescue rung, an LU fallback, a CG breakdown.
var rescueCounters = []string{
	"xbar.solver.rung.damped", "xbar.solver.rung.source_step",
	"xbar.solver.lu_fallbacks", "xbar.solver.cg_breakdowns",
}

// workCounters are the counts that define how much work one input
// costs. They must repeat exactly for the same input, across runs and
// between traced and untraced execution.
var workCounters = []string{cMVMCalls, cCrossbarOps, cSolves, cFactorBuilds, cNewtonIters, cCGIters}

func readCounts() counts {
	s := obs.Snapshot()
	c := counts{}
	for _, n := range append([]string{cMVMCalls, cCrossbarOps, cFreeHits, cFreeMisses, cSolves, cFactorBuilds, cFactorReuses}, rescueCounters...) {
		c[n] = float64(s.Counters[n])
	}
	c[cNewtonIters] = s.Histograms[cNewtonIters].Sum
	c[cCGIters] = s.Histograms[cCGIters].Sum
	return c
}

func (c counts) minus(base counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// work renders the work counters of one input as a stable string.
func (c counts) work() string {
	parts := make([]string, len(workCounters))
	for i, n := range workCounters {
		parts[i] = fmt.Sprintf("%s=%g", n, c[n])
	}
	return strings.Join(parts, " ")
}

// inputCounts records the work counters per input (an image, a fit
// seed). digest summarises them so two runs of one seed can be
// compared by one number.
type inputCounts map[string]string

func (ic inputCounts) digest() string {
	keys := make([]string, 0, len(ic))
	for k := range ic {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s:%s\n", k, ic[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// procStats samples the process-wide costs the runtime metrics read:
// CPU time, heap bytes allocated and GC CPU, plus the host's CPU ticks
// and how many of them the hypervisor stole (/proc/stat), which says
// how much of a slow run was the host's doing.
type procStats struct {
	cpu        time.Duration
	allocBytes float64
	gcCPU      float64 // runtime/metrics GC CPU estimate, seconds
	usedCPU    float64 // runtime/metrics total minus idle, seconds
	hostTicks  float64
	stealTicks float64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	host, steal := hostCPU()
	return procStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: float64(samples[0].Value.Uint64()),
		gcCPU:      samples[1].Value.Float64(),
		usedCPU:    samples[2].Value.Float64() - samples[3].Value.Float64(),
		hostTicks:  host,
		stealTicks: steal,
	}
}

// hostCPU returns the host's total and stolen CPU ticks from the
// aggregate line of /proc/stat, or zeros where it cannot be read.
func hostCPU() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// maxRSSMB reads the process's peak resident set (VmHWM) in MB.
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostMeta describes where and what was measured.
func hostMeta(workload string, seed uint64, traced bool) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	if modified == "true" {
		commit += "+dirty"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
