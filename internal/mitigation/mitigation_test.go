package mitigation

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"uavres/internal/mathx"
	"uavres/internal/sensors"
)

func sample(a, g mathx.Vec3) sensors.IMUSample {
	return sensors.IMUSample{Accel: a, Gyro: g}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero_disabled", Config{}, true},
		{"default", DefaultConfig(), true},
		{"neg_clamp", Config{GyroClampRad: -1}, false},
		{"huge_window", Config{MedianWindow: 100}, false},
		{"neg_stuck", Config{StuckWindow: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v", err)
			}
			if !tt.ok {
				if _, err := NewPipeline(tt.cfg); err == nil {
					t.Error("NewPipeline accepted invalid config")
				}
			}
		})
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !DefaultConfig().Enabled() {
		t.Error("default config reports disabled")
	}
}

func TestDisabledPipelineIsPassThrough(t *testing.T) {
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := sample(mathx.V3(1, 2, -9.8), mathx.V3(30, -30, 5))
	out, stuck := p.Apply(in)
	if out != in || stuck {
		t.Errorf("pass-through distorted: %+v stuck=%v", out, stuck)
	}
}

func TestGyroClamp(t *testing.T) {
	p, err := NewPipeline(Config{GyroClampRad: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A full-scale Min injection (-34.9 rad/s) is saturated to -10.
	out, _ := p.Apply(sample(mathx.Zero3, mathx.V3(-sensors.GyroRange, sensors.GyroRange, 2)))
	if out.Gyro != mathx.V3(-10, 10, 2) {
		t.Errorf("clamped gyro = %v", out.Gyro)
	}
	// In-envelope rates pass untouched.
	out, _ = p.Apply(sample(mathx.Zero3, mathx.V3(3, -3, 1)))
	if out.Gyro != mathx.V3(3, -3, 1) {
		t.Errorf("in-envelope gyro modified: %v", out.Gyro)
	}
}

func TestMedianRemovesIsolatedSpike(t *testing.T) {
	p, err := NewPipeline(Config{MedianWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	steady := sample(mathx.V3(0, 0, -9.8), mathx.V3(0.1, 0, 0))
	for i := 0; i < 10; i++ {
		p.Apply(steady)
	}
	// One spike sample.
	p.Apply(sample(mathx.V3(150, -150, 100), mathx.V3(30, 30, 30)))
	// The next output must still be the steady value: the spike is a
	// minority within every 5-sample window.
	out, _ := p.Apply(steady)
	if out.Accel.Sub(steady.Accel).Norm() > 1e-9 || out.Gyro.Sub(steady.Gyro).Norm() > 1e-9 {
		t.Errorf("spike leaked through median: %+v", out)
	}
}

func TestMedianTracksStepAfterHalfWindow(t *testing.T) {
	p, err := NewPipeline(Config{MedianWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Apply(sample(mathx.V3(0, 0, -9.8), mathx.Zero3))
	}
	// A genuine step (maneuver) must come through after ceil(w/2) samples.
	stepped := sample(mathx.V3(2, 0, -9.8), mathx.V3(0.5, 0, 0))
	var out sensors.IMUSample
	for i := 0; i < 3; i++ {
		out, _ = p.Apply(stepped)
	}
	if out.Accel.X != 2 || out.Gyro.X != 0.5 {
		t.Errorf("step suppressed: %+v", out)
	}
}

func TestMedianEvenWindowRoundsUp(t *testing.T) {
	p, err := NewPipeline(Config{MedianWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Window 5 after rounding: two spikes in a row must still be a
	// minority.
	steady := sample(mathx.V3(0, 0, -9.8), mathx.Zero3)
	for i := 0; i < 10; i++ {
		p.Apply(steady)
	}
	spike := sample(mathx.V3(99, 99, 99), mathx.Zero3)
	p.Apply(spike)
	p.Apply(spike)
	out, _ := p.Apply(steady)
	if out.Accel.X != 0 {
		t.Errorf("two spikes in rounded-up window leaked: %v", out.Accel)
	}
}

func TestStuckGuardDetectsFreeze(t *testing.T) {
	p, err := NewPipeline(Config{StuckWindow: 10})
	if err != nil {
		t.Fatal(err)
	}
	frozen := sample(mathx.V3(0.5, 0.1, -9.7), mathx.V3(0.01, 0, 0))
	detected := false
	for i := 0; i < 10; i++ {
		_, stuck := p.Apply(frozen)
		detected = detected || stuck
	}
	if !detected {
		t.Error("10 identical samples not detected with window 10")
	}
	if !p.StuckDetected() {
		t.Error("stuck latch not set")
	}
}

func TestStuckGuardDetectsZeros(t *testing.T) {
	p, err := NewPipeline(Config{StuckWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	var detected bool
	for i := 0; i < 5; i++ {
		_, stuck := p.Apply(sample(mathx.Zero3, mathx.Zero3))
		detected = detected || stuck
	}
	if !detected {
		t.Error("all-zero stream not detected")
	}
}

func TestStuckGuardIgnoresNoisySensor(t *testing.T) {
	p, err := NewPipeline(Config{StuckWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := mathx.V3(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05, -9.8+rng.NormFloat64()*0.05)
		g := mathx.V3(rng.NormFloat64()*0.002, 0.01, 0)
		if _, stuck := p.Apply(sample(a, g)); stuck {
			t.Fatalf("noisy stream flagged stuck at sample %d", i)
		}
	}
}

func TestStuckGuardOneRepeatedSensorSuffices(t *testing.T) {
	p, err := NewPipeline(Config{StuckWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Accel noisy, gyro frozen: the gyro guard must fire.
	detected := false
	for i := 0; i < 10; i++ {
		a := mathx.V3(rng.NormFloat64(), rng.NormFloat64(), -9.8)
		_, stuck := p.Apply(sample(a, mathx.V3(0.02, -0.01, 0)))
		detected = detected || stuck
	}
	if !detected {
		t.Error("frozen gyro not detected while accel noisy")
	}
}

// Property: the median filter's output is always one of the window's
// input values and lies between the window min and max.
func TestMedianWithinInputRange(t *testing.T) {
	f := func(values []float64) bool {
		m := newMedianFilter(7)
		window := make([]float64, 0, 7)
		for _, v := range values {
			if v != v { // NaN breaks ordering; real sensors never emit it
				v = 0
			}
			out := m.push(v)
			window = append(window, v)
			if len(window) > 7 {
				window = window[1:]
			}
			lo, hi := minMax(window)
			if out < lo || out > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for a full window, push returns the true median.
func TestMedianMatchesSort(t *testing.T) {
	f := func(raw [7]float64) bool {
		m := newMedianFilter(7)
		var out float64
		vals := make([]float64, 0, 7)
		for _, v := range raw {
			if v != v {
				v = 0
			}
			vals = append(vals, v)
			out = m.push(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return out == sorted[3]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// TestApplyAllocFree pins the 250 Hz pipeline pass at zero allocations
// per op.
func TestApplyAllocFree(t *testing.T) {
	p, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := sample(mathx.V3(0.01, -0.02, -9.81), mathx.V3(0.02, 0, 0.01))
	if n := testing.AllocsPerRun(100, func() {
		s.Accel.X += 1e-9 // nominal streams are noisy: keep the stuck guard quiet
		_, _ = p.Apply(s)
	}); n != 0 {
		t.Errorf("Pipeline.Apply allocates %v per op, want 0", n)
	}
}
