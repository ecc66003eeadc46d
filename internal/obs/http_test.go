package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func get(t *testing.T, mux http.Handler, path string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	resp := rec.Result()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, body
}

// Each endpoint must declare the right content type and serve its
// documented payload.
func TestMuxContentTypes(t *testing.T) {
	r := NewRegistry()
	r.Counter("mux.hits").Add(3)
	recordSpan(r, "mux.op")
	mux := r.Mux(false)

	for _, tc := range []struct {
		path string
		ct   string
	}{
		{"/metrics", "application/json"},
		{"/metrics?format=prom", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics?format=bogus", "application/json"},
		{"/trace", "application/json"},
		{"/", "application/json"},
	} {
		resp, body := get(t, mux, tc.path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.ct {
			t.Errorf("%s: content type %q, want %q", tc.path, got, tc.ct)
		}
		if len(body) == 0 {
			t.Errorf("%s: empty body", tc.path)
		}
	}

	_, body := get(t, mux, "/trace")
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != 1 {
		t.Errorf("/trace has %d events, want 1", len(tr.TraceEvents))
	}
}

// The JSON snapshot endpoint must serialize deterministically —
// byte-identical responses for identical registry state.
func TestMetricsJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.c").Add(1)
	r.Counter("a.c").Add(2)
	r.Gauge("m.g").Set(-5)
	r.Histogram("h.h", []float64{1, 10}).Observe(3)
	mux := r.Mux(false)

	_, b1 := get(t, mux, "/metrics")
	_, b2 := get(t, mux, "/metrics")
	if string(b1) != string(b2) {
		t.Errorf("identical state served different bytes:\n%s\n%s", b1, b2)
	}
}

// pprof must be mounted only when asked for.
func TestMuxPprofOptIn(t *testing.T) {
	r := NewRegistry()
	resp, _ := get(t, r.Mux(true), "/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof-enabled mux: /debug/pprof/cmdline status %d", resp.StatusCode)
	}
	// Without pprof the path falls through to "/" (the snapshot), which
	// serves JSON — not a pprof payload.
	resp, body := get(t, r.Mux(false), "/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof-disabled mux: status %d", resp.StatusCode)
	}
	var s SnapshotData
	if err := json.Unmarshal(body, &s); err != nil {
		t.Errorf("pprof-disabled mux should fall through to the JSON snapshot: %v", err)
	}
}

// Scraping while metrics are being recorded must be safe (run under
// -race as part of the race gate) and always serve a parseable
// snapshot.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("busy.c")
	h := r.Histogram("busy.h", []float64{1, 2, 4})
	mux := r.Mux(false)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(1.5)
					recordSpan(r, "busy.op")
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		path := "/metrics"
		if i%3 == 1 {
			path = "/trace"
		} else if i%3 == 2 {
			path = "/metrics?format=prom"
		}
		resp, body := get(t, mux, path)
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("scrape %d (%s): status %d, %d bytes", i, path, resp.StatusCode, len(body))
		}
		if path == "/metrics" {
			var s SnapshotData
			if err := json.Unmarshal(body, &s); err != nil {
				t.Fatalf("scrape %d: bad JSON under load: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
