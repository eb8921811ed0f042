package faultinject

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"uavres/internal/mathx"
	"uavres/internal/sensors"
)

func mkInjector(t *testing.T, p Primitive, target Target) *Injector {
	t.Helper()
	j, err := New(Injection{
		Primitive: p, Target: target,
		Start: 90 * time.Second, Duration: 10 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func sample(t float64) sensors.IMUSample {
	return sensors.IMUSample{
		T:     t,
		Accel: mathx.V3(0.5, -0.3, -9.7),
		Gyro:  mathx.V3(0.01, -0.02, 0.03),
	}
}

func TestInjectionValidate(t *testing.T) {
	valid := Injection{Primitive: Zeros, Target: TargetIMU, Start: time.Second, Duration: 2 * time.Second}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid injection rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Injection)
	}{
		{"bad_primitive", func(in *Injection) { in.Primitive = 99 }},
		{"bad_target", func(in *Injection) { in.Target = 0 }},
		{"neg_start", func(in *Injection) { in.Start = -time.Second }},
		{"zero_duration", func(in *Injection) { in.Duration = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := valid
			tt.mutate(&in)
			if err := in.Validate(); err == nil {
				t.Error("invalid injection accepted")
			}
			if _, err := New(in); err == nil {
				t.Error("New accepted invalid injection")
			}
		})
	}
}

func TestWindowContainment(t *testing.T) {
	j := mkInjector(t, Zeros, TargetIMU)
	// Before, inside, and after the [90, 100) window.
	for _, tc := range []struct {
		t      float64
		active bool
	}{
		{0, false}, {89.999, false}, {90, true}, {95, true},
		{99.999, true}, {100, false}, {200, false},
	} {
		if got := j.Active(tc.t); got != tc.active {
			t.Errorf("Active(%v) = %v, want %v", tc.t, got, tc.active)
		}
	}
}

func TestPassThroughOutsideWindow(t *testing.T) {
	j := mkInjector(t, Random, TargetIMU)
	in := sample(10)
	if got := j.Apply(in); got != in {
		t.Errorf("pre-window sample modified: %+v", got)
	}
	in = sample(150)
	if got := j.Apply(in); got != in {
		t.Errorf("post-window sample modified: %+v", got)
	}
	if j.AppliedSamples() != 0 {
		t.Errorf("AppliedSamples = %d, want 0", j.AppliedSamples())
	}
}

func TestZerosPrimitive(t *testing.T) {
	j := mkInjector(t, Zeros, TargetIMU)
	got := j.Apply(sample(95))
	if got.Accel != mathx.Zero3 || got.Gyro != mathx.Zero3 {
		t.Errorf("Zeros produced %+v", got)
	}
	if got.T != 95 {
		t.Error("timestamp must be preserved")
	}
}

func TestMinMaxPrimitives(t *testing.T) {
	jMin := mkInjector(t, MinValue, TargetIMU)
	got := jMin.Apply(sample(95))
	wantA := -sensors.AccelRange
	wantG := -sensors.GyroRange
	if got.Accel != mathx.V3(wantA, wantA, wantA) || got.Gyro != mathx.V3(wantG, wantG, wantG) {
		t.Errorf("Min produced %+v", got)
	}

	jMax := mkInjector(t, MaxValue, TargetIMU)
	got = jMax.Apply(sample(95))
	if got.Accel != mathx.V3(-wantA, -wantA, -wantA) || got.Gyro != mathx.V3(-wantG, -wantG, -wantG) {
		t.Errorf("Max produced %+v", got)
	}
}

func TestFreezeHoldsLastPreFaultValue(t *testing.T) {
	j := mkInjector(t, Freeze, TargetIMU)
	// Stream several pre-fault samples; the last one must be held.
	j.Apply(sensors.IMUSample{T: 80, Accel: mathx.V3(1, 1, 1), Gyro: mathx.V3(2, 2, 2)})
	last := sensors.IMUSample{T: 89.9, Accel: mathx.V3(0.7, 0.1, -9.9), Gyro: mathx.V3(0.05, 0, 0)}
	j.Apply(last)
	for _, tt := range []float64{90, 94, 99.9} {
		got := j.Apply(sample(tt))
		if got.Accel != last.Accel || got.Gyro != last.Gyro {
			t.Errorf("Freeze at t=%v produced %+v, want held %+v", tt, got, last)
		}
	}
}

func TestFixedValueConstantWithinWindow(t *testing.T) {
	j := mkInjector(t, FixedValue, TargetIMU)
	first := j.Apply(sample(90))
	second := j.Apply(sample(95))
	if first.Accel != second.Accel || first.Gyro != second.Gyro {
		t.Error("FixedValue changed between samples")
	}
	if first.Accel.MaxAbs() > sensors.AccelRange || first.Gyro.MaxAbs() > sensors.GyroRange {
		t.Error("FixedValue out of sensor range")
	}
	// Different seeds draw different constants.
	j2, err := New(Injection{Primitive: FixedValue, Target: TargetIMU, Start: 90 * time.Second, Duration: 10 * time.Second, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	other := j2.Apply(sample(90))
	if other.Accel == first.Accel {
		t.Error("different seeds drew identical fixed value")
	}
}

func TestRandomChangesEverySample(t *testing.T) {
	j := mkInjector(t, Random, TargetIMU)
	a := j.Apply(sample(91))
	b := j.Apply(sample(91.004))
	if a.Accel == b.Accel && a.Gyro == b.Gyro {
		t.Error("Random produced identical consecutive samples")
	}
	for _, s := range []sensors.IMUSample{a, b} {
		if s.Accel.MaxAbs() > sensors.AccelRange || s.Gyro.MaxAbs() > sensors.GyroRange {
			t.Errorf("Random out of range: %+v", s)
		}
	}
}

func TestNoisePerturbsAroundTruth(t *testing.T) {
	j := mkInjector(t, Noise, TargetIMU)
	in := sample(95)
	var maxDev float64
	n := 1000
	for i := 0; i < n; i++ {
		got := j.Apply(in)
		dev := got.Accel.Sub(in.Accel).MaxAbs()
		if dev > maxDev {
			maxDev = dev
		}
		if dev > NoiseAmpFraction*sensors.AccelRange+1e-9 {
			t.Fatalf("noise deviation %v exceeds amplitude", dev)
		}
		gDev := got.Gyro.Sub(in.Gyro).MaxAbs()
		if gDev > NoiseAmpFraction*sensors.GyroRange+1e-9 {
			t.Fatalf("gyro noise deviation %v exceeds amplitude", gDev)
		}
	}
	if maxDev < 0.5*NoiseAmpFraction*sensors.AccelRange {
		t.Errorf("noise too timid: max deviation %v", maxDev)
	}
}

func TestTargetSelectivity(t *testing.T) {
	in := sample(95)
	accOnly := mkInjector(t, Zeros, TargetAccel)
	got := accOnly.Apply(in)
	if got.Accel != mathx.Zero3 {
		t.Error("TargetAccel did not corrupt accel")
	}
	if got.Gyro != in.Gyro {
		t.Error("TargetAccel corrupted gyro")
	}

	gyroOnly := mkInjector(t, Zeros, TargetGyro)
	got = gyroOnly.Apply(in)
	if got.Gyro != mathx.Zero3 {
		t.Error("TargetGyro did not corrupt gyro")
	}
	if got.Accel != in.Accel {
		t.Error("TargetGyro corrupted accel")
	}
}

func TestAppliedSamplesCount(t *testing.T) {
	j := mkInjector(t, Zeros, TargetIMU)
	j.Apply(sample(50))
	j.Apply(sample(92))
	j.Apply(sample(93))
	j.Apply(sample(150))
	if got := j.AppliedSamples(); got != 2 {
		t.Errorf("AppliedSamples = %d, want 2", got)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	mk := func() *Injector {
		j, err := New(Injection{Primitive: Random, Target: TargetIMU, Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		tm := 90 + float64(i)*0.004
		if a.Apply(sample(tm)) != b.Apply(sample(tm)) {
			t.Fatal("same-seed injectors diverged")
		}
	}
}

func TestLabels(t *testing.T) {
	in := Injection{Primitive: Freeze, Target: TargetGyro}
	if got := in.Label(); got != "Gyro Freeze" {
		t.Errorf("Label = %q", got)
	}
	if got := (Injection{Primitive: FixedValue, Target: TargetIMU}).Label(); got != "IMU Fixed Value" {
		t.Errorf("Label = %q", got)
	}
}

func TestParsePrimitiveRoundTrip(t *testing.T) {
	for _, p := range Primitives() {
		got, err := ParsePrimitive(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePrimitive(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePrimitive("bogus"); err == nil {
		t.Error("ParsePrimitive accepted bogus label")
	}
}

func TestParseTargetRoundTrip(t *testing.T) {
	for _, tg := range Targets() {
		got, err := ParseTarget(tg.String())
		if err != nil || got != tg {
			t.Errorf("ParseTarget(%q) = %v, %v", tg.String(), got, err)
		}
	}
	if _, err := ParseTarget("wing"); err == nil {
		t.Error("ParseTarget accepted bogus label")
	}
}

// Property: regardless of primitive, corrupted outputs never exceed the
// sensor's physical range (an injector cannot produce values the real
// hardware could not emit), and samples outside the window are untouched.
func TestInjectorRangeAndWindowProperty(t *testing.T) {
	prims := Primitives()
	f := func(primIdx uint8, targetIdx uint8, seed int64, tRaw float64) bool {
		p := prims[int(primIdx)%len(prims)]
		tg := Targets()[int(targetIdx)%3]
		j, err := New(Injection{Primitive: p, Target: tg, Start: 90 * time.Second, Duration: 10 * time.Second, Seed: seed})
		if err != nil {
			return false
		}
		tm := math.Mod(math.Abs(tRaw), 200)
		if math.IsNaN(tm) {
			tm = 0
		}
		in := sample(tm)
		// Prime the freeze buffer like a real stream would.
		j.Apply(sample(0))
		got := j.Apply(in)
		if !j.Active(tm) {
			return got == in
		}
		return got.Accel.MaxAbs() <= sensors.AccelRange+1e-9 &&
			got.Gyro.MaxAbs() <= sensors.GyroRange+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestScopeAffectsUnit(t *testing.T) {
	all := Injection{Primitive: Zeros, Target: TargetIMU, Duration: time.Second}
	for i := 0; i < 3; i++ {
		if !all.AffectsUnit(i) {
			t.Errorf("all-units scope skips unit %d", i)
		}
	}
	one := all
	one.Scope = ScopePrimaryUnit
	if !one.AffectsUnit(0) || one.AffectsUnit(1) || one.AffectsUnit(2) {
		t.Error("primary-unit scope wrong")
	}
}

func TestScopeValidation(t *testing.T) {
	in := Injection{Primitive: Zeros, Target: TargetIMU, Duration: time.Second, Scope: 99}
	if err := in.Validate(); err == nil {
		t.Error("invalid scope accepted")
	}
}

func TestScopeStrings(t *testing.T) {
	if ScopeAllUnits.String() != "all-units" || ScopePrimaryUnit.String() != "primary-unit" {
		t.Error("scope strings wrong")
	}
}

// TestApplyAllocFree pins corrupting one IMU sample inside the fault
// window at zero allocations per op.
func TestApplyAllocFree(t *testing.T) {
	j, err := New(Injection{
		Primitive: Random, Target: TargetIMU,
		Start: 0, Duration: time.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sample(1)
	if n := testing.AllocsPerRun(100, func() { _ = j.Apply(s) }); n != 0 {
		t.Errorf("Injector.Apply allocates %v per op, want 0", n)
	}
	if j.AppliedSamples() == 0 {
		t.Error("no sample fell inside the fault window")
	}
}
