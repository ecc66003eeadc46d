package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"geniex/internal/linalg"
)

// passthrough is the cheapest possible tier: the benchmark measures
// the serving machinery (decode, admission, metrics, trace root,
// encode), not model execution.
func passthrough(_ context.Context, x *linalg.Dense) (*linalg.Dense, error) {
	return x, nil
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	s, err := NewServer(Config{
		Tiers:       []Tier{{Name: "ideal", Runner: RunnerFunc(passthrough)}},
		In:          3,
		MaxInFlight: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchRequest(b *testing.B, s *Server, body []byte) {
	b.Helper()
	req := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
}

// BenchmarkServeFlat is the per-request baseline: the anonymous
// ("default" tenant) request path, whose per-request metric work is
// the flat outcome counters plus the default tenant's latency
// histogram.
func BenchmarkServeFlat(b *testing.B) {
	s := benchServer(b)
	// The pad field keeps the request bytes comparable with the
	// labeled benchmark's bodies, so the delta isolates the
	// dimensional machinery rather than JSON length.
	body := []byte(`{"pad":"tenant-0","inputs":[[1,2,3]]}`)
	benchRequest(b, s, body) // warm the tenant handle cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, body)
	}
}

// BenchmarkServeLabeled drives the same path with explicit rotating
// tenant names, exercising the dimensional layer in full: per-tenant
// handle-cache lookups plus each tenant's pre-resolved latency
// histogram. The contract (held by review against BenchmarkServeFlat)
// is that the labeled path costs no more than ~5% over the flat
// baseline — label resolution happens once per tenant, not per
// request.
func BenchmarkServeLabeled(b *testing.B) {
	s := benchServer(b)
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"tenant":"tenant-%d","inputs":[[1,2,3]]}`, i))
		benchRequest(b, s, bodies[i]) // warm the tenant handle cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, s, bodies[i%len(bodies)])
	}
}
