package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metric instruments. Registration (Counter, Gauge,
// Histogram, ...) takes a lock and may allocate; the returned instruments
// are lock-free and allocation-free to update, so callers resolve them
// once at construction time and hit only atomics in their hot loops.
// Instruments are safe for concurrent use from any number of goroutines.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // guarded by mu
	order   []*metric          // registration order; guarded by mu
}

// metric kinds.
const (
	kindCounter = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type metric struct {
	name string
	kind int

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// lookupOrAdd returns the metric registered under name, creating it with
// mk when absent. A name collision across kinds returns nil: the caller
// hands out a detached instrument so updates stay safe but the conflicting
// registration is not exported (misconfiguration must not panic a flight
// campaign).
func (r *Registry) lookupOrAdd(name string, kind int, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, exists := r.metrics[name]; exists {
		if m.kind != kind {
			return nil
		}
		return m
	}
	m := mk()
	m.name = name
	m.kind = kind
	r.metrics[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter registered under name, creating it if
// needed. If the name is already taken by a different kind, a detached
// counter (not exported by the registry) is returned.
func (r *Registry) Counter(name string) *Counter {
	m := r.lookupOrAdd(name, kindCounter, func() *metric { return &metric{counter: &Counter{}} })
	if m == nil {
		return &Counter{}
	}
	return m.counter
}

// Gauge returns the gauge registered under name, creating it if needed.
// Kind collisions return a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.lookupOrAdd(name, kindGauge, func() *metric { return &metric{gauge: &Gauge{}} })
	if m == nil {
		return &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a live gauge whose value is read by calling fn at
// snapshot/exposition time. fn must be safe to call from any goroutine.
// Re-registering an existing name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	m := r.lookupOrAdd(name, kindGaugeFunc, func() *metric { return &metric{} })
	if m == nil {
		return
	}
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram returns the fixed-bucket histogram registered under name,
// creating it with the given upper bounds (which must be sorted
// ascending; an unsorted or empty slice is sanitized). The +Inf overflow
// bucket is implicit. Kind collisions return a detached histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	m := r.lookupOrAdd(name, kindHistogram, func() *metric { return &metric{hist: newHistogram(bounds)} })
	if m == nil {
		return newHistogram(bounds)
	}
	return m.hist
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Max raises the gauge to v if v is larger (running maximum).
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Observe is lock-free
// and allocation-free: a linear scan over the (small, fixed) bound slice
// plus two atomic adds.
type Histogram struct {
	bounds []float64      // immutable after construction
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    Gauge          // accumulated via CAS in observeSum
	n      atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	h.observeSum(v)
}

// observeSum adds v to the running sum with a CAS loop (no lock, no
// allocation).
func (h *Histogram) observeSum(v float64) {
	for {
		old := h.sum.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Snapshot is a point-in-time copy of every registered metric, ordered by
// name (deterministic output). It is the registry's serialization format
// (WriteJSON).
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's (or gauge func's) snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram's snapshot. Counts has one entry per
// bound plus the trailing +Inf overflow bucket.
type HistogramValue struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// snapshotMetrics returns the metric list in registration order without
// holding the lock during value reads (instrument reads are atomic).
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.order))
	copy(out, r.order)
	return out
}

// Snapshot captures every metric's current value. Gauge funcs are
// evaluated; they reappear as plain gauge values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   []CounterValue{},
		Gauges:     []GaugeValue{},
		Histograms: []HistogramValue{},
	}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterValue{Name: m.name, Value: m.counter.Value()})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeValue{Name: m.name, Value: m.gauge.Value()})
		case kindGaugeFunc:
			r.mu.Lock()
			fn := m.fn
			r.mu.Unlock()
			if fn != nil {
				s.Gauges = append(s.Gauges, GaugeValue{Name: m.name, Value: fn()})
			}
		case kindHistogram:
			h := m.hist
			hv := HistogramValue{
				Name:   m.name,
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Sum:    h.Sum(),
				Count:  h.Count(),
			}
			for i := range h.counts {
				hv.Counts[i] = h.counts[i].Load()
			}
			s.Histograms = append(s.Histograms, hv)
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
