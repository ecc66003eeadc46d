package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one event in the Chrome trace-event JSON format, the
// form chrome://tracing and Perfetto load directly. Complete spans use
// "ph":"X" with ts and dur in microseconds per the format spec;
// metadata records (thread names) use "ph":"M".
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope of the trace-event format.
// spansDropped is an extension field (ignored by viewers) surfacing
// how many span events fell off the ring before this export.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	SpansDropped    int64         `json:"spansDropped"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteTrace exports the registry's span ring as Chrome trace-event
// JSON, loadable in chrome://tracing or https://ui.perfetto.dev. Each
// span becomes one complete event; its timestamp is the span's offset
// from the registry epoch (Epoch), so the trace timeline starts near
// zero regardless of wall-clock values. Spans land on their trace ID's
// track ("tid"), grouping the spans of one logical operation — e.g.
// one inference request — into one row of the viewer; ungrouped spans
// (trace 0) share track 0. Spans carry span_id/parent_id args encoding
// the parent/child tree, and a root span's Track (StartRootSpan)
// becomes the row's thread_name metadata, so per-tenant requests are
// labeled rows. Complete events are sorted by timestamp and metadata
// precedes them, so identical ring contents serialize identically.
//
// It returns the number of events written (metadata included). The
// ring holds the most recent traceRingSize spans; earlier spans of a
// long run have been overwritten (counted by the envelope's
// spansDropped and SnapshotData.SpansDropped).
func (r *Registry) WriteTrace(w io.Writer) (int, error) {
	spans, dropped := r.trace.snapshot(false)
	tr := chromeTrace{
		DisplayTimeUnit: "ms",
		SpansDropped:    dropped,
		TraceEvents:     make([]chromeEvent, 0, len(spans)),
	}
	// Track names by trace ID: last writer wins, which is fine — a
	// trace has one root and therefore one track name in practice.
	tracks := map[int64]string{}
	for _, e := range spans {
		ts := float64(e.Start-r.epochNano) / 1e3
		if ts < 0 {
			ts = 0
		}
		ce := chromeEvent{
			Name: e.Name,
			Cat:  "span",
			Ph:   "X",
			Pid:  1,
			Tid:  e.Trace,
			Ts:   ts,
			Dur:  float64(e.Duration) / 1e3,
		}
		if e.Span != 0 {
			ce.Args = map[string]any{"span_id": e.Span, "parent_id": e.Parent}
		}
		if e.Track != "" {
			tracks[e.Trace] = e.Track
		}
		tr.TraceEvents = append(tr.TraceEvents, ce)
	}
	sort.SliceStable(tr.TraceEvents, func(i, j int) bool {
		return tr.TraceEvents[i].Ts < tr.TraceEvents[j].Ts
	})
	if len(tracks) > 0 {
		tids := make([]int64, 0, len(tracks))
		for tid := range tracks {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		meta := make([]chromeEvent, 0, len(tids))
		for _, tid := range tids {
			meta = append(meta, chromeEvent{
				Name: "thread_name",
				Ph:   "M",
				Pid:  1,
				Tid:  tid,
				Args: map[string]any{"name": tracks[tid]},
			})
		}
		tr.TraceEvents = append(meta, tr.TraceEvents...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(tr); err != nil {
		return 0, err
	}
	return len(tr.TraceEvents), nil
}
