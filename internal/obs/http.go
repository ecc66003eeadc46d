package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler that serves the registry snapshot.
// Every path returns the JSON form ("?format=prom" switches to the
// Prometheus text exposition — see WriteProm), so it works both as a
// standalone endpoint and mounted under a path like /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Query().Get("format") {
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WriteProm(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
		}
	})
}

// TraceHandler returns an http.Handler serving the span ring as Chrome
// trace-event JSON (see WriteTrace) — curl it to a file and load that
// in chrome://tracing or Perfetto.
func (r *Registry) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = r.WriteTrace(w)
	})
}

// Mux assembles the registry's HTTP surface:
//
//	/metrics   snapshot (JSON; ?format=prom for Prometheus text)
//	/trace     span ring as Chrome trace-event JSON
//	/          snapshot (back-compat with the pre-mux endpoint)
//
// With withPprof set it additionally mounts the net/http/pprof
// handlers under /debug/pprof/, so a live run can be CPU- or
// alloc-profiled (`go tool pprof http://addr/debug/pprof/profile`).
// pprof stays opt-in because it exposes goroutine dumps and symbol
// information; enable it only on loopback or trusted networks.
func (r *Registry) Mux(withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/trace", r.TraceHandler())
	mux.Handle("/", r.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Serve starts an HTTP server exposing the registry mux (see Mux) on
// addr and returns the bound address (useful with ":0"). The listener
// runs on a background goroutine until the process exits; Serve is
// meant for the opt-in -metrics-addr flag of the CLIs, not for managed
// servers.
func (r *Registry) Serve(addr string, withPprof bool) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: r.Mux(withPprof)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
