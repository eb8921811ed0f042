package obs

import (
	"net/http"
	"net/http/pprof"
)

// MetricsMux builds the standard observability endpoint over a registry:
// Prometheus-text metrics at /metrics plus the Go profiling handlers
// under /debug/pprof/, on a private mux so nothing else in the process
// can accidentally extend the default mux into the same listener.
// cmd/campaign and cmd/campaignd layer their own handlers on top.
func MetricsMux(reg *Registry) *http.ServeMux {
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
