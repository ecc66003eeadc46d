package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	if tc := TraceFromContext(nil); tc.Valid() {
		t.Error("nil context yielded a valid trace")
	}
	if tc := TraceFromContext(context.Background()); tc.Valid() {
		t.Error("bare context yielded a valid trace")
	}
	ctx := ContextWithTrace(nil, TraceContext{Trace: 7, Span: 3})
	tc := TraceFromContext(ctx)
	if !tc.Valid() || tc.Trace != 7 || tc.Span != 3 {
		t.Errorf("round-tripped trace context = %+v", tc)
	}
}

// The interior-layer gating pattern — extract, check Valid, bail — is
// on 0 allocs/op hot paths (MVM, tile, solve), so it must not
// allocate on untraced contexts.
func TestTraceFromContextDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if TraceFromContext(ctx).Valid() {
			t.Fatal("background context traced")
		}
		if TraceFromContext(nil).Valid() {
			t.Fatal("nil context traced")
		}
	})
	if allocs != 0 {
		t.Errorf("untraced gate allocates %.1f objects per run, want 0", allocs)
	}
}

// StartSpan under a traced context must parent the new span on the
// innermost open span, and End must record the completed tree into
// the ring with consistent trace/span/parent IDs.
func TestStartSpanParenting(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()

	ctx, root := r.StartRootSpan(context.Background(), "serve.request", "tenant:acme")
	if root.TraceID() == 0 || root.SpanID() == 0 {
		t.Fatalf("root span ids = trace %d span %d, want non-zero", root.TraceID(), root.SpanID())
	}
	if tc := TraceFromContext(ctx); tc.Trace != root.TraceID() || tc.Span != root.SpanID() {
		t.Errorf("derived context carries %+v, want root's ids", tc)
	}

	cctx, child := r.StartSpan(ctx, "funcsim.forward")
	_, grand := r.StartSpan(cctx, "funcsim.mvm")
	grand.End()
	child.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring holds %d spans, want 3", len(spans))
	}
	// Ring order is end order: grandchild, child, root.
	g, c, rt := spans[0], spans[1], spans[2]
	for _, e := range spans {
		if e.Trace != root.TraceID() {
			t.Errorf("span %q trace = %d, want %d", e.Name, e.Trace, root.TraceID())
		}
	}
	if rt.Name != "serve.request" || rt.Parent != 0 {
		t.Errorf("root event = %+v, want serve.request with parent 0", rt)
	}
	if rt.Track != "tenant:acme" {
		t.Errorf("root track = %q, want tenant:acme", rt.Track)
	}
	if c.Parent != rt.Span {
		t.Errorf("child parent = %d, want root span %d", c.Parent, rt.Span)
	}
	if g.Parent != c.Span {
		t.Errorf("grandchild parent = %d, want child span %d", g.Parent, c.Span)
	}
	if c.Track != "" || g.Track != "" {
		t.Error("non-root spans must not carry a track name")
	}
}

// A span started without an enclosing trace allocates a fresh trace
// ID, so standalone operations still group their own subtrees.
func TestStartSpanAllocatesTrace(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	ctx, sp := r.StartSpan(context.Background(), "op")
	if sp.TraceID() == 0 {
		t.Error("span without enclosing trace got trace ID 0")
	}
	if tc := TraceFromContext(ctx); tc.Trace != sp.TraceID() {
		t.Errorf("context trace = %d, want %d", tc.Trace, sp.TraceID())
	}
	sp.End()
}

// Disabled instrumentation must short-circuit: same context back, an
// inert span whose End records nothing, and zero-value Spans are
// always safe to End.
func TestStartSpanDisabled(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	r := NewRegistry()
	ctx := context.Background()
	got, sp := r.StartSpan(ctx, "op")
	if got != ctx {
		t.Error("disabled StartSpan derived a new context")
	}
	if sp.TraceID() != 0 || sp.SpanID() != 0 {
		t.Errorf("disabled span ids = %d/%d, want 0/0", sp.TraceID(), sp.SpanID())
	}
	sp.End()
	(Span{}).End() // zero Span: inert by contract
	if spans := r.Spans(); len(spans) != 0 {
		t.Errorf("disabled span recorded %d events", len(spans))
	}
}

// The Chrome export must encode the parent/child tree in span_id/
// parent_id args and emit the root's track as thread_name metadata on
// the trace's row.
func TestWriteTraceParentedTree(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	ctx, root := r.StartRootSpan(context.Background(), "serve.request", "tenant:acme")
	_, child := r.StartSpan(ctx, "funcsim.forward")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if _, err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		SpansDropped *int64 `json:"spansDropped"`
		TraceEvents  []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.SpansDropped == nil || *tr.SpansDropped != 0 {
		t.Errorf("envelope spansDropped = %v, want present and 0", tr.SpansDropped)
	}
	byName := map[string]map[string]any{}
	var meta *struct {
		tid  int64
		name string
	}
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "X":
			byName[e.Name] = e.Args
		case "M":
			if e.Name == "thread_name" {
				meta = &struct {
					tid  int64
					name string
				}{e.Tid, e.Args["name"].(string)}
			}
		}
	}
	if meta == nil {
		t.Fatal("no thread_name metadata event")
	}
	if meta.name != "tenant:acme" || meta.tid != root.TraceID() {
		t.Errorf("thread_name = %q on tid %d, want tenant:acme on %d", meta.name, meta.tid, root.TraceID())
	}
	rootArgs, childArgs := byName["serve.request"], byName["funcsim.forward"]
	if rootArgs == nil || childArgs == nil {
		t.Fatalf("span events missing: %v", byName)
	}
	rootID, _ := rootArgs["span_id"].(float64)
	childParent, _ := childArgs["parent_id"].(float64)
	if rootID == 0 || int64(rootID) != root.SpanID() {
		t.Errorf("root span_id arg = %g, want %d", rootID, root.SpanID())
	}
	if int64(childParent) != root.SpanID() {
		t.Errorf("child parent_id arg = %g, want %d", childParent, root.SpanID())
	}
}

// Ring overflow must be surfaced everywhere spans are: the snapshot's
// SpansDropped field, WriteText's obs.spans_dropped line, and the
// Chrome envelope's spansDropped extension.
func TestSpansDroppedSurfaced(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	for i := 0; i < traceRingSize+10; i++ {
		recordSpan(r, "op")
	}
	if got := r.Snapshot().SpansDropped; got != 10 {
		t.Errorf("Snapshot().SpansDropped = %d, want 10", got)
	}
	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "obs.spans_dropped 10") {
		t.Errorf("WriteText lacks obs.spans_dropped line:\n%s", txt.String())
	}
	var buf bytes.Buffer
	if _, err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		SpansDropped int64 `json:"spansDropped"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.SpansDropped != 10 {
		t.Errorf("envelope spansDropped = %d, want 10", tr.SpansDropped)
	}
}
