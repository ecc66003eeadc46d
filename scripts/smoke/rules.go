package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// chromeTrace is the Chrome trace-event envelope obs.WriteTrace emits.
type chromeTrace struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	// SpansDropped is a pointer so a missing field differs from zero:
	// the envelope owns the ring's drop count, so a truncated trace is
	// visibly truncated.
	SpansDropped *int64 `json:"spansDropped"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// id returns the span_id or parent_id arg, 0 when absent. JSON numbers
// decode as float64; the IDs are small counters, well inside its
// exact-integer range.
func (e traceEvent) id(key string) int64 {
	f, _ := e.Args[key].(float64)
	return int64(f)
}

// checkTrace applies the trace-file rules: the file parses, holds at
// least one event, every event has a name, a phase and non-negative
// ts/dur, the envelope's spansDropped is present and non-negative, and
// every nonzero parent_id resolves to a span_id in the file. The ring
// evicts oldest-first and parents end after their children, so a
// retained child's ancestors are retained too. It returns a one-line
// summary of the trace.
func checkTrace(data []byte) (string, error) {
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return "", fmt.Errorf("not valid trace JSON: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return "", fmt.Errorf("trace holds no events")
	}
	if tr.SpansDropped == nil {
		return "", fmt.Errorf("trace lacks the spansDropped envelope field")
	}
	if *tr.SpansDropped < 0 {
		return "", fmt.Errorf("trace reports negative spansDropped %d", *tr.SpansDropped)
	}
	spanIDs := map[int64]bool{}
	for i, e := range tr.TraceEvents {
		switch {
		case e.Name == "":
			return "", fmt.Errorf("event %d has no name", i)
		case e.Ph == "":
			return "", fmt.Errorf("event %d (%s) has no phase", i, e.Name)
		case e.Ts < 0 || e.Dur < 0:
			return "", fmt.Errorf("event %d (%s) has negative ts=%g dur=%g", i, e.Name, e.Ts, e.Dur)
		}
		spanIDs[e.id("span_id")] = true
	}
	parented := 0
	for i, e := range tr.TraceEvents {
		if pid := e.id("parent_id"); pid != 0 {
			if !spanIDs[pid] {
				return "", fmt.Errorf("event %d (%s) has parent_id %d with no matching span_id", i, e.Name, pid)
			}
			parented++
		}
	}
	return fmt.Sprintf("%d events, %d parented, %d dropped",
		len(tr.TraceEvents), parented, *tr.SpansDropped), nil
}

// spanChain walks parent links from each xbar.batch.solve span,
// newest first, and accepts the first complete chain. The chain must
// pass through tile, MVM and forward spans to a serve.request root on
// a tenant:* track; spanChain returns its span names and that track.
//
// This is deliberately laxer than checkTrace: a 504's serve.request
// root ends before its background children do, so the ring can evict
// that root first and leave an older chain broken. A quiesced server's
// newest chains are complete.
func spanChain(tr chromeTrace) ([]string, string, error) {
	type span struct {
		name        string
		parent, tid int64
		ts          float64
	}
	spans := map[int64]span{}
	tracks := map[int64]string{} // tid → thread_name
	var solves []int64
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[e.Tid], _ = e.Args["name"].(string)
			continue
		}
		sid := e.id("span_id")
		if sid == 0 {
			continue
		}
		spans[sid] = span{e.Name, e.id("parent_id"), e.Tid, e.Ts}
		if e.Name == "xbar.batch.solve" {
			solves = append(solves, sid)
		}
	}
	if len(solves) == 0 {
		return nil, "", fmt.Errorf("trace holds no xbar.batch.solve span (circuit tier never served?)")
	}
	sort.Slice(solves, func(i, j int) bool { return spans[solves[i]].ts > spans[solves[j]].ts })

	walk := func(sid int64) ([]string, span, error) {
		var chain []string
		for cur := sid; len(chain) < 32; {
			s, ok := spans[cur]
			if !ok {
				return nil, span{}, fmt.Errorf("span chain broken at id %d (after %s)", cur, strings.Join(chain, " → "))
			}
			chain = append(chain, s.name)
			if s.parent == 0 {
				return chain, s, nil
			}
			cur = s.parent
		}
		return nil, span{}, fmt.Errorf("span chain deeper than 32 (cycle?): %s", strings.Join(chain, " → "))
	}
	var lastErr error
	for _, sid := range solves {
		chain, root, err := walk(sid)
		if err != nil {
			lastErr = err
			continue
		}
		for _, want := range []string{"xbar.batch.solve", "funcsim.tile", "funcsim.mvm", "funcsim.forward", "serve.request"} {
			if !slices.Contains(chain, want) {
				return nil, "", fmt.Errorf("span chain %v lacks %s", chain, want)
			}
		}
		if root.name != "serve.request" {
			return nil, "", fmt.Errorf("span chain root is %s, want serve.request (chain %v)", root.name, chain)
		}
		track := tracks[root.tid]
		if !strings.HasPrefix(track, "tenant:") {
			return nil, "", fmt.Errorf("serve.request root rides track %q, want a tenant:* track", track)
		}
		return chain, track, nil
	}
	return nil, "", fmt.Errorf("no solve span has a complete parent chain: %w", lastErr)
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$`)

// promGrammar rejects any line of a Prometheus text exposition that is
// neither blank, a comment, nor `name[{labels}] value`.
func promGrammar(text string) error {
	for i, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !promLine.MatchString(line) {
			return fmt.Errorf("prom line %d is malformed: %q", i+1, line)
		}
	}
	return nil
}

// registration is one obs.New* call in program source: the metric
// kind, the series name (empty when the argument is not a plain string
// literal) and the file:line it sits at.
type registration struct {
	kind, name, at string
}

var registerRE = regexp.MustCompile(
	`obs\.New(Counter|Gauge|Histogram|HistogramVec|SLO)\(\s*(?:"([^"\\]*)"\s*[,)])?`)

// findRegistrations returns every obs.New* registration in src, the
// Go source of the file at path.
func findRegistrations(path, src string) []registration {
	var regs []registration
	for _, m := range registerRE.FindAllStringSubmatchIndex(src, -1) {
		r := registration{
			kind: src[m[2]:m[3]],
			at:   fmt.Sprintf("%s:%d", path, 1+strings.Count(src[:m[0]], "\n")),
		}
		if m[4] >= 0 {
			r.name = src[m[4]:m[5]]
		}
		regs = append(regs, r)
	}
	return regs
}

// isReader reports whether the file at path (repo-relative) can read a
// series: a test file anywhere, or any file of the smoke harness or the
// benchmark.
func isReader(path string) bool {
	path = filepath.ToSlash(path)
	return strings.HasSuffix(path, "_test.go") ||
		strings.HasPrefix(path, "scripts/smoke/") || strings.HasPrefix(path, "perfbench/")
}

// readerRule checks regs against files (repo-relative path → source).
// Every registration must name its series with a string literal, and
// every series must be read: its name must appear as "name" or "name{
// in a reader file (see isReader). SLO trackers are exempt from the
// read requirement: the ladder's Distrust gate and the calibrator
// trigger read them through the handle. It returns the distinct names
// the rule checked, SLO trackers excluded.
func readerRule(regs []registration, files map[string]string) (map[string]bool, error) {
	var readers strings.Builder
	for path, src := range files {
		if isReader(path) {
			readers.WriteString(src)
		}
	}
	corpus := readers.String()
	names := map[string][]string{} // series name → registration sites
	var bad []string
	for _, r := range regs {
		switch {
		case r.name == "":
			bad = append(bad, fmt.Sprintf("obs.New%s at %s: name is not a string literal", r.kind, r.at))
		case r.kind != "SLO":
			names[r.name] = append(names[r.name], r.at)
		}
	}
	for name, sites := range names {
		if !strings.Contains(corpus, `"`+name+`"`) && !strings.Contains(corpus, `"`+name+`{`) {
			bad = append(bad, fmt.Sprintf("%s (registered at %s): never read by a test, a smoke check or perfbench",
				name, strings.Join(sites, ", ")))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("catalog reader rule:\n  %s", strings.Join(bad, "\n  "))
	}
	checked := map[string]bool{}
	for name := range names {
		checked[name] = true
	}
	return checked, nil
}

const indexMarker = "**Full registered-name index.**"

var (
	indexCountRE = regexp.MustCompile(`These (\d+) names`)
	backtickRE   = regexp.MustCompile("`([^`]+)`")
)

// indexRule checks DESIGN.md's full registered-name index against
// names, the registered series SLO trackers aside. The index is the
// paragraph that opens with indexMarker, whose "These N names" must
// count names, and the list after it, which must name each of them
// once and nothing else.
func indexRule(design string, names map[string]bool) error {
	i := strings.Index(design, indexMarker)
	if i < 0 {
		return fmt.Errorf("DESIGN.md has no %s paragraph", indexMarker)
	}
	paras := strings.SplitN(design[i:], "\n\n", 3)
	m := indexCountRE.FindStringSubmatch(paras[0])
	if m == nil || len(paras) < 2 {
		return fmt.Errorf("the name index lacks its \"These N names\" count or its list")
	}
	var bad []string
	if n, _ := strconv.Atoi(m[1]); n != len(names) {
		bad = append(bad, fmt.Sprintf("the index counts %d names, %d are registered", n, len(names)))
	}
	listed := map[string]bool{}
	for _, b := range backtickRE.FindAllStringSubmatch(paras[1], -1) {
		switch name := b[1]; {
		case listed[name]:
			bad = append(bad, name+": listed twice")
		case !names[name]:
			bad = append(bad, name+": listed but not registered")
		default:
			listed[name] = true
		}
	}
	for name := range names {
		if !listed[name] {
			bad = append(bad, name+": registered but not listed")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("DESIGN.md name index:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
