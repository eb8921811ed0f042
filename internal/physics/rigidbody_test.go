package physics

import (
	"math"
	"testing"
	"testing/quick"

	"uavres/internal/mathx"
)

func newTestBody(t *testing.T) *Body {
	t.Helper()
	b, err := NewBody(DefaultParams(), CalmWind())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"default", func(*Params) {}, true},
		{"zero_mass", func(p *Params) { p.MassKg = 0 }, false},
		{"neg_inertia", func(p *Params) { p.Inertia.Y = -1 }, false},
		{"zero_arm", func(p *Params) { p.ArmLengthM = 0 }, false},
		{"underpowered", func(p *Params) { p.MaxThrustPerRotorN = 1 }, false},
		{"zero_tau", func(p *Params) { p.MotorTau = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestNewBodyRejectsInvalidParams(t *testing.T) {
	p := DefaultParams()
	p.MassKg = -1
	if _, err := NewBody(p, nil); err == nil {
		t.Error("NewBody accepted invalid params")
	}
}

func TestHoverThrustFraction(t *testing.T) {
	p := DefaultParams()
	f := p.HoverThrustFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("hover fraction %v out of (0,1)", f)
	}
	// At the hover fraction total thrust equals weight.
	if got := f * 4 * p.MaxThrustPerRotorN; math.Abs(got-p.MassKg*Gravity) > 1e-9 {
		t.Errorf("hover thrust %v != weight %v", got, p.MassKg*Gravity)
	}
}

func TestHoverIsNearEquilibrium(t *testing.T) {
	b := newTestBody(t)
	hover := b.Params.HoverThrustFraction()
	// Start airborne with rotors pre-spun to hover.
	s := b.State()
	s.Pos.Z = -20
	for i := range s.Rotor {
		s.Rotor[i] = hover
	}
	b.SetState(s)
	b.SetMotorCommands(Rotors{hover, hover, hover, hover})
	for i := 0; i < 2500; i++ { // 5 s at 2 ms
		b.Step(0.002)
	}
	got := b.State()
	if math.Abs(got.AltitudeM()-20) > 0.5 {
		t.Errorf("altitude after 5 s hover = %v, want ~20", got.AltitudeM())
	}
	if got.Vel.Norm() > 0.2 {
		t.Errorf("velocity at hover = %v, want ~0", got.Vel)
	}
	if got.Att.TiltAngle() > 0.01 {
		t.Errorf("tilt at hover = %v rad", got.Att.TiltAngle())
	}
}

func TestFreeFallAcceleration(t *testing.T) {
	b := newTestBody(t)
	s := b.State()
	s.Pos.Z = -500
	b.SetState(s)
	b.SetMotorCommands(Rotors{}) // motors off
	const dt, steps = 0.002, 500 // 1 s
	for i := 0; i < steps; i++ {
		b.Step(dt)
	}
	got := b.State()
	// After 1 s of fall: v = vt*(1-exp(-t/tau)) with tau = m/c ~ 3.3 s and
	// terminal velocity ~32.7 m/s gives ~8.5 m/s; drag-free would be 9.81.
	if got.Vel.Z < 8 || got.Vel.Z > Gravity {
		t.Errorf("fall speed after 1 s = %v, want ~8.5", got.Vel.Z)
	}
	drop := got.AltitudeM() - 500
	if drop > -4 || drop < -5.2 {
		t.Errorf("altitude change after 1 s = %v, want ~-4.5", drop)
	}
}

func TestDifferentialThrustRolls(t *testing.T) {
	b := newTestBody(t)
	s := b.State()
	s.Pos.Z = -50
	b.SetState(s)
	hover := b.Params.HoverThrustFraction()
	// More thrust on the right side (+Y rotors 0 and 3) rolls negative X.
	b.SetMotorCommands(Rotors{hover + 0.1, hover - 0.1, hover - 0.1, hover + 0.1})
	for i := 0; i < 100; i++ {
		b.Step(0.002)
	}
	if w := b.State().Omega.X; w >= 0 {
		t.Errorf("roll rate = %v, want negative", w)
	}
}

func TestYawTorqueFromRotorPairs(t *testing.T) {
	b := newTestBody(t)
	s := b.State()
	s.Pos.Z = -50
	b.SetState(s)
	hover := b.Params.HoverThrustFraction()
	// Speeding up the +yaw pair (rotors 2,3) must yaw positively.
	b.SetMotorCommands(Rotors{hover - 0.05, hover - 0.05, hover + 0.05, hover + 0.05})
	for i := 0; i < 100; i++ {
		b.Step(0.002)
	}
	if w := b.State().Omega.Z; w <= 0 {
		t.Errorf("yaw rate = %v, want positive", w)
	}
}

func TestGroundSupportsRestingVehicle(t *testing.T) {
	b := newTestBody(t)
	b.SetMotorCommands(Rotors{})
	for i := 0; i < 2000; i++ {
		b.Step(0.002)
	}
	s := b.State()
	if !s.OnGround() {
		t.Error("vehicle left the ground with motors off")
	}
	if math.Abs(s.Pos.Z) > 0.15 {
		t.Errorf("resting penetration = %v m", s.Pos.Z)
	}
	if s.Vel.Norm() > 0.05 {
		t.Errorf("resting velocity = %v", s.Vel)
	}
	// On the ground an ideal accelerometer reads ~1 g upward.
	sf := b.SpecificForce()
	if math.Abs(sf.Z+Gravity) > 0.6 {
		t.Errorf("resting specific force Z = %v, want ~%v", sf.Z, -Gravity)
	}
}

func TestTouchdownSpeedRecorded(t *testing.T) {
	b := newTestBody(t)
	s := b.State()
	s.Pos.Z = -10 // drop from 10 m
	b.SetState(s)
	b.SetMotorCommands(Rotors{})
	for i := 0; i < 2000 && b.TouchdownSpeed() == 0; i++ {
		b.Step(0.002)
	}
	// Impact speed from 10 m is sqrt(2*g*10) ~ 14 m/s minus drag.
	v := b.TouchdownSpeed()
	if v < 10 || v > 15 {
		t.Errorf("touchdown speed = %v, want ~13-14", v)
	}
}

func TestSpecificForceInFreeFallIsZero(t *testing.T) {
	b := newTestBody(t)
	s := b.State()
	s.Pos.Z = -1000
	b.SetState(s)
	b.SetMotorCommands(Rotors{})
	b.Step(0.002)
	// In free fall (ignoring drag at low speed) specific force ~ 0.
	if f := b.SpecificForce().Norm(); f > 0.1 {
		t.Errorf("free-fall specific force = %v, want ~0", f)
	}
}

func TestStateIsFinite(t *testing.T) {
	s := State{Att: mathx.QuatIdentity()}
	if !s.IsFinite() {
		t.Error("zero state reported non-finite")
	}
	s.Vel.X = math.NaN()
	if s.IsFinite() {
		t.Error("NaN state reported finite")
	}
	s = State{Att: mathx.QuatIdentity()}
	s.Rotor[2] = math.NaN()
	if s.IsFinite() {
		t.Error("NaN rotor reported finite")
	}
}

func TestRateSaturation(t *testing.T) {
	b := newTestBody(t)
	s := b.State()
	s.Pos.Z = -100
	s.Omega = mathx.V3(1000, 1000, 1000) // absurd initial rate
	b.SetState(s)
	b.Step(0.002)
	if w := b.State().Omega.MaxAbs(); w > 50 {
		t.Errorf("rate after saturation = %v, want <= 50", w)
	}
}

func TestMixerForwardAllocateRoundTrip(t *testing.T) {
	m := NewMixer(DefaultParams())
	f := func(thrustRaw, tx, ty, tz float64) bool {
		// Wrench strictly inside the achievable envelope: per-rotor share
		// stays within [0, tMax] so no desaturation distorts the result.
		thrust := 5 + math.Mod(math.Abs(bounded(thrustRaw)), 15) // 5..20 N
		torque := mathx.V3(
			math.Mod(bounded(tx), 0.15),
			math.Mod(bounded(ty), 0.15),
			math.Mod(bounded(tz), 0.01),
		)
		cmd := m.Allocate(thrust, torque)
		var thrusts Rotors
		for i := range cmd {
			if cmd[i] < 0 || cmd[i] > 1 {
				return false
			}
			thrusts[i] = cmd[i] * DefaultParams().MaxThrustPerRotorN
		}
		gotThrust, gotTorque := m.Forward(thrusts)
		return math.Abs(gotThrust-thrust) < 1e-6 &&
			gotTorque.Sub(torque).Norm() < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMixerSaturationClampsToValidRange(t *testing.T) {
	m := NewMixer(DefaultParams())
	cmd := m.Allocate(1000, mathx.V3(50, -50, 10)) // far beyond envelope
	for i, c := range cmd {
		if c < 0 || c > 1 {
			t.Errorf("cmd[%d] = %v out of [0,1]", i, c)
		}
	}
}

func TestWindStationaryVariance(t *testing.T) {
	rng := mathx.NewRand(42)
	w := NewWind(mathx.V3(2, 0, 0), 1.5, 2.0, rng)
	var stats mathx.Running
	const dt = 0.01
	for i := 0; i < 200000; i++ {
		v := w.Step(dt)
		if i > 1000 {
			stats.Add(v.X)
		}
	}
	if math.Abs(stats.Mean()-2) > 0.15 {
		t.Errorf("gust mean = %v, want ~2 (mean wind)", stats.Mean())
	}
	if math.Abs(stats.Std()-1.5) > 0.25 {
		t.Errorf("gust std = %v, want ~1.5", stats.Std())
	}
}

func TestCalmWindIsZero(t *testing.T) {
	w := CalmWind()
	for i := 0; i < 10; i++ {
		if v := w.Step(0.01); v.Norm() != 0 {
			t.Fatalf("calm wind = %v", v)
		}
	}
	if w.Current().Norm() != 0 {
		t.Error("calm wind Current() nonzero")
	}
}

func TestWindDeterministicWithSameSeed(t *testing.T) {
	a := NewWind(mathx.Zero3, 1, 1, mathx.NewRand(5))
	b := NewWind(mathx.Zero3, 1, 1, mathx.NewRand(5))
	for i := 0; i < 100; i++ {
		if a.Step(0.01) != b.Step(0.01) {
			t.Fatal("same-seed wind diverged")
		}
	}
}

func bounded(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
