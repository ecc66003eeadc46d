package obs

import "sync"

// traceRingSize is the number of span events a registry retains. Spans
// instrument coarse operations (layer forwards, batch solves, training
// epochs), so a small ring keeps the recent execution history without
// growing with run length.
const traceRingSize = 256

// Event is one completed span in the trace ring.
//
// Timestamp contract: Start is in Unix nanoseconds, derived as the
// registry's epoch wall time plus the span start's *monotonic* offset
// from that epoch (see Registry.Epoch). Within one registry, Start
// values are therefore totally ordered and immune to wall-clock jumps;
// across registries (or processes) they are only as comparable as the
// wall clocks that anchored the epochs. Exporters that need a relative
// timeline (WriteTrace) subtract the snapshot's EpochUnixNano.
type Event struct {
	// Name identifies the operation (static strings at call sites).
	Name string `json:"name"`
	// Start is the span start in Unix nanoseconds (epoch-anchored
	// monotonic; see the type comment).
	Start int64 `json:"start_unix_nano"`
	// Duration is the span length in nanoseconds.
	Duration int64 `json:"duration_nano"`
	// Trace groups spans that belong to one logical operation (e.g.
	// one inference forward pass). 0 means ungrouped. IDs come from
	// NextTraceID.
	Trace int64 `json:"trace_id,omitempty"`
	// Span is this span's own ID and Parent the enclosing span's (0
	// for roots), forming the parented span tree StartSpan builds.
	Span   int64 `json:"span_id,omitempty"`
	Parent int64 `json:"parent_id,omitempty"`
	// Track optionally names the trace's display row (e.g.
	// "tenant:acme"); set on root spans via StartRootSpan and emitted
	// as Chrome thread_name metadata by WriteTrace.
	Track string `json:"track,omitempty"`
}

// eventRing is a fixed-capacity overwrite-oldest span buffer. Slots
// are preallocated on first use; recording into a warm ring does not
// allocate (span names are static strings, so storing one copies a
// two-word header).
type eventRing struct {
	mu      sync.Mutex
	buf     []Event
	next    int   // slot the next event lands in
	total   int64 // events ever recorded
	dropped int64 // events overwritten
}

func (r *eventRing) record(e Event) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]Event, traceRingSize)
	}
	if r.total >= int64(len(r.buf)) {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// snapshot returns the retained events oldest-first plus the dropped
// count; clear empties the ring.
func (r *eventRing) snapshot(clear bool) ([]Event, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	var out []Event
	if n > 0 {
		out = make([]Event, 0, n)
		start := (r.next - int(n) + len(r.buf)) % len(r.buf)
		for i := 0; i < int(n); i++ {
			out = append(out, r.buf[(start+i)%len(r.buf)])
		}
	}
	dropped := r.dropped
	if clear {
		r.next, r.total, r.dropped = 0, 0, 0
	}
	return out, dropped
}

// Spans returns the retained span events, oldest first.
func (r *Registry) Spans() []Event {
	out, _ := r.trace.snapshot(false)
	return out
}
