package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// promName sanitizes a metric name into the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promFloat formats a float for exposition (+Inf/-Inf/NaN per the text
// format).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4), the scrape payload of the /metrics
// endpoint MetricsMux serves. Metrics appear sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	bw := bufio.NewWriter(w)
	for _, c := range s.Counters {
		name := promName(c.Name)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, c.Value)
	}
	for _, g := range s.Gauges {
		name := promName(g.Name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(g.Value))
	}
	for _, h := range s.Histograms {
		name := promName(h.Name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, promFloat(bound), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", name, promFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.Count)
	}
	return bw.Flush()
}
