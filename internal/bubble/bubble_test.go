package bubble

import (
	"math"
	"testing"
	"testing/quick"

	"uavres/internal/mathx"
	"uavres/internal/mission"
)

func testMission() mission.Mission {
	return mission.Mission{
		ID: 1, CruiseSpeedMS: 4, AltitudeM: 15,
		Drone:     mission.DroneSpec{Name: "test", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 6},
		Start:     mathx.V3(0, 0, 0),
		Waypoints: []mathx.Vec3{{X: 200, Y: 0, Z: -15}},
	}
}

func TestInnerRadiusEq1(t *testing.T) {
	spec := mission.DroneSpec{DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 6}
	// D_m = 6 m/s * 1 s = 6 > D_s = 2, so inner = 0.8 + 6.
	if got := InnerRadius(spec, 1); math.Abs(got-6.8) > 1e-12 {
		t.Errorf("InnerRadius = %v, want 6.8", got)
	}
	// With a 0.25 s tracker, D_m = 1.5 < D_s = 2, so inner = 0.8 + 2.
	if got := InnerRadius(spec, 0.25); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("InnerRadius = %v, want 2.8", got)
	}
	// Non-positive interval falls back to the 1 s default.
	if got := InnerRadius(spec, 0); math.Abs(got-6.8) > 1e-12 {
		t.Errorf("InnerRadius(0) = %v, want 6.8", got)
	}
}

func TestOuterSteadyFlightEqualsInner(t *testing.T) {
	o, err := NewOuter(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Constant airspeed, sub-meter interval distance: anticipation <= 1,
	// so outer = R * inner.
	for i := 0; i < 10; i++ {
		if got := o.Update(0.9, 0.9); math.Abs(got-5) > 1e-12 {
			t.Errorf("steady outer = %v, want 5", got)
		}
	}
}

func TestOuterGrowsWithAcceleration(t *testing.T) {
	o, err := NewOuter(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	o.Update(4, 4)
	// Airspeed doubles: anticipated distance doubles (Eq. 2), outer swells.
	got := o.Update(8, 8)
	if got <= 5 {
		t.Errorf("outer after acceleration = %v, want > inner", got)
	}
	want := 1.0 * 5 * (4 * (8.0 / 4.0)) // R * inner * anticipated
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("outer = %v, want %v (Eq. 2+3)", got, want)
	}
}

func TestOuterNeverBelowInner(t *testing.T) {
	f := func(speeds []float64) bool {
		o, err := NewOuter(3, 1)
		if err != nil {
			return false
		}
		for _, s := range speeds {
			v := math.Abs(s)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			v = math.Mod(v, 30)
			if r := o.Update(v, v); r < 3-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOuterRiskFactorScales(t *testing.T) {
	base, err := NewOuter(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	risky, err := NewOuter(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := base.Update(1, 0.5)
	r := risky.Update(1, 0.5)
	if math.Abs(r-2*b) > 1e-12 {
		t.Errorf("R=2 radius %v, want twice %v", r, b)
	}
}

func TestOuterRClampedToOne(t *testing.T) {
	o, err := NewOuter(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if o.R != 1 {
		t.Errorf("R = %v, want clamped to 1", o.R)
	}
}

func TestOuterRejectsBadInner(t *testing.T) {
	if _, err := NewOuter(0, 1); err == nil {
		t.Error("zero inner radius accepted")
	}
}

func TestOuterZeroAirspeedSafe(t *testing.T) {
	o, err := NewOuter(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	o.Update(0, 0)
	got := o.Update(5, 5) // previous airspeed zero: ratio guarded
	if math.IsNaN(got) || math.IsInf(got, 0) || got < 4 {
		t.Errorf("outer after zero airspeed = %v", got)
	}
}

func TestTrackerSamplingCadence(t *testing.T) {
	tr, err := NewTracker(testMission(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	onPath := mathx.V3(50, 0, -15)
	fired := 0
	for i := 0; i <= 1000; i++ { // 10 s at 10 ms
		if _, ok := tr.Observe(float64(i)*0.01, onPath, 4); ok {
			fired++
		}
	}
	if fired != 11 {
		t.Errorf("tracking samples in 10 s = %d, want 11", fired)
	}
	if tr.Samples() != fired {
		t.Errorf("Samples() = %d, want %d", tr.Samples(), fired)
	}
}

func TestTrackerNoViolationsOnPath(t *testing.T) {
	tr, err := NewTracker(testMission(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		// Small tracking error well inside the inner bubble (6.8 m).
		p := mathx.V3(float64(i)*2, 0.5, -14.7)
		tr.Observe(float64(i), p, 4)
	}
	if tr.InnerViolations() != 0 || tr.OuterViolations() != 0 {
		t.Errorf("violations on-path: inner=%d outer=%d", tr.InnerViolations(), tr.OuterViolations())
	}
}

func TestTrackerCountsViolations(t *testing.T) {
	tr, err := NewTracker(testMission(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 10 samples far off the route: every one violates both bubbles.
	for i := 0; i < 10; i++ {
		tr.Observe(float64(i), mathx.V3(50, 500, -15), 4)
	}
	if tr.InnerViolations() != 10 {
		t.Errorf("inner violations = %d, want 10", tr.InnerViolations())
	}
	if tr.OuterViolations() != 10 {
		t.Errorf("outer violations = %d, want 10", tr.OuterViolations())
	}
	s := tr.Last()
	if !s.InnerViolated || !s.OuterViolated || math.Abs(s.Deviation-500) > 1 {
		t.Errorf("last sample = %+v", s)
	}
}

func TestTrackerOuterSubsetOfInner(t *testing.T) {
	// Outer radius >= inner radius always, so outer violations can never
	// exceed inner violations.
	tr, err := NewTracker(testMission(), 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	positions := []float64{0, 3, 7, 12, 2, 30, 8, 0.5, 15, 100}
	for i, off := range positions {
		tr.Observe(float64(i), mathx.V3(50, off, -15), 4)
	}
	if tr.OuterViolations() > tr.InnerViolations() {
		t.Errorf("outer violations %d > inner %d", tr.OuterViolations(), tr.InnerViolations())
	}
	if tr.InnerViolations() == 0 {
		t.Error("test positions should violate the inner bubble at least once")
	}
}

func TestTrackerRejectsInvalidMission(t *testing.T) {
	bad := testMission()
	bad.Waypoints = nil
	if _, err := NewTracker(bad, 1, 1); err == nil {
		t.Error("invalid mission accepted")
	}
}

func TestTrackerDefaultInterval(t *testing.T) {
	tr, err := NewTracker(testMission(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Default interval is 1 s; two observations 0.5 s apart yield one sample.
	tr.Observe(0, mathx.Zero3, 0)
	if _, ok := tr.Observe(0.5, mathx.Zero3, 0); ok {
		t.Error("sampled faster than the default 1 s cadence")
	}
}

// TestTrackerObserveAllocFree pins a sampling observation (dynamic outer
// bubble plus nearest point on the route) at zero allocations per op: the
// tracker runs once per simulated second of every case.
func TestTrackerObserveAllocFree(t *testing.T) {
	tr, err := NewTracker(mission.Valencia()[4], 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := mathx.V3(2100, 900, -15)
	now := 0.0
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := tr.Observe(now, p, 3.3); !ok {
			t.Fatal("observation not sampled")
		}
		now++
	}); n != 0 {
		t.Errorf("Tracker.Observe allocates %v per op, want 0", n)
	}
}
