package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("steps") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("tilt")
	g.Set(12.5)
	if g.Value() != 12.5 {
		t.Errorf("gauge = %v", g.Value())
	}
	g.Max(3) // below current: no-op
	g.Max(40)
	if g.Value() != 40 {
		t.Errorf("gauge after Max = %v, want 40", g.Value())
	}
}

func TestKindCollisionReturnsDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	g := r.Gauge("x") // name taken by a counter
	g.Set(9)          // must not crash, must not leak into exposition
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 1 {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 0 {
		t.Errorf("detached gauge exported: %+v", s.Gauges)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 106 {
		t.Errorf("sum = %v", h.Sum())
	}
	s := r.Snapshot()
	hv := s.Histograms[0]
	// 0.5 and 1 land in le=1; 1.5 in le=2; 3 in le=5; 100 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.GaugeFunc("live", func() float64 { return v })
	if got := r.Snapshot().Gauges[0].Value; got != 7 {
		t.Errorf("gauge func = %v", got)
	}
	v = 8
	if got := r.Snapshot().Gauges[0].Value; got != 8 {
		t.Errorf("gauge func after change = %v", got)
	}
}

// TestConcurrentInstruments exercises the lock-free update paths under
// the race detector (ci.sh runs this package with -race).
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2, 3})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Max(float64(w*1000 + i))
				h.Observe(float64(i % 5))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			var buf bytes.Buffer
			_ = r.WriteJSON(&buf)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 4000 {
		t.Errorf("counter = %d, want 4000", c.Value())
	}
	if h.Count() != 4000 {
		t.Errorf("histogram count = %d, want 4000", h.Count())
	}
	if g.Value() != 3999 {
		t.Errorf("gauge max = %v, want 3999", g.Value())
	}
}

// TestHotPathAllocationFree pins the 500 Hz step-loop contract: updating
// resolved instruments allocates nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{0.001, 0.01, 0.1, 1})
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1.5)
		g.Max(2.5)
		h.Observe(0.05)
	}); n != 0 {
		t.Errorf("hot path allocates %.1f per op, want 0", n)
	}
}
