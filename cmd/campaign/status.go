package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"uavres/internal/core"
	"uavres/internal/obs"
)

// statusStreamInterval paces the SSE stream: fast enough to feel live,
// slow enough that a dashboard costs nothing against the worker pool.
const statusStreamInterval = 500 * time.Millisecond

// metricsMux builds the observability endpoint over a registry:
// Prometheus-text metrics at /metrics plus the Go profiling handlers
// under /debug/pprof/, on a private mux so nothing else in the process
// can extend the default mux into the same listener.
func metricsMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// addStatusHandlers layers the live campaign endpoints over the metrics
// mux: /status is a one-shot JSON snapshot, /status/stream an SSE
// feed that emits a snapshot every interval until the client disconnects
// (or immediately-then-forever-after the campaign finishes).
func addStatusHandlers(mux *http.ServeMux, src *core.StatusSource) {
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(src.Snapshot())
	})
	mux.HandleFunc("/status/stream", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		ticker := time.NewTicker(statusStreamInterval)
		defer ticker.Stop()
		for {
			st := src.Snapshot()
			data, err := json.Marshal(st)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
			if st.Done {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-ticker.C:
			}
		}
	})
}

// serveStatus binds addr and serves the status + metrics + pprof mux in
// the background. Binding happens here, synchronously, so a taken port
// fails the campaign before any case runs. The returned closer stops the
// listener.
func serveStatus(addr string, reg *obs.Registry, src *core.StatusSource) (func(), error) {
	mux := metricsMux(reg)
	addStatusHandlers(mux, src)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("campaign: -status-addr: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("campaign: status endpoint at http://%s/status\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}
