package faultinject

import (
	"testing"
	"time"

	"uavres/internal/physics"
)

func mkActuator(t *testing.T, in Injection) *Injector {
	t.Helper()
	j, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	return &j
}

func actuatorInjection(p Primitive, rotor int) Injection {
	return Injection{
		Primitive: p, Target: TargetRotor, Rotor: rotor,
		Start: 90 * time.Second, Duration: 10 * time.Second,
		Scope: ScopeAllUnits,
	}
}

func TestActuatorValidate(t *testing.T) {
	if err := actuatorInjection(LossOfEffectiveness, 0).Validate(); err != nil {
		t.Errorf("valid LoE rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Injection)
	}{
		{"sensor_primitive_on_rotor", func(in *Injection) { in.Primitive = Zeros }},
		{"actuator_primitive_on_gyro", func(in *Injection) { in.Target = TargetGyro }},
		{"rotor_out_of_range", func(in *Injection) { in.Rotor = physics.MaxRotors }},
		{"negative_rotor", func(in *Injection) { in.Rotor = -1 }},
		{"scoped_rotor_fault", func(in *Injection) { in.Scope = ScopePrimaryUnit }},
		{"factor_above_one", func(in *Injection) { in.Factor = 1.0 }},
		{"negative_factor", func(in *Injection) { in.Factor = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := actuatorInjection(LossOfEffectiveness, 0)
			tt.mutate(&in)
			if err := in.Validate(); err == nil {
				t.Error("invalid actuator injection accepted")
			}
		})
	}
	// Factor is LoE-only; a sensor injection carrying one is malformed.
	in := Injection{Primitive: Freeze, Target: TargetGyro, Start: time.Second,
		Duration: time.Second, Factor: 0.5}
	if err := in.Validate(); err == nil {
		t.Error("sensor injection with Factor accepted")
	}
	// A sensor injection naming a rotor is malformed too.
	in = Injection{Primitive: Freeze, Target: TargetGyro, Start: time.Second,
		Duration: time.Second, Rotor: 2}
	if err := in.Validate(); err == nil {
		t.Error("sensor injection with Rotor accepted")
	}
}

func TestSensorTargetClassification(t *testing.T) {
	for _, tg := range Targets() {
		in := Injection{Target: tg}
		if !in.SensorTarget() {
			t.Errorf("%v classified as actuator", tg)
		}
	}
	if (Injection{Target: TargetRotor}).SensorTarget() {
		t.Error("TargetRotor classified as sensor")
	}
	for _, p := range ActuatorPrimitives() {
		if !p.Actuator() {
			t.Errorf("%v not classified as actuator primitive", p)
		}
	}
	for _, p := range Primitives() {
		if p.Actuator() {
			t.Errorf("sensor primitive %v classified as actuator", p)
		}
	}
}

func TestActuatorParseRoundTrip(t *testing.T) {
	for _, p := range ActuatorPrimitives() {
		got, err := ParsePrimitive(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePrimitive(%q) = %v, %v", p.String(), got, err)
		}
	}
	if tg, err := ParseTarget("rotor"); err != nil || tg != TargetRotor {
		t.Errorf("ParseTarget(rotor) = %v, %v", tg, err)
	}
}

// TestLoERotorScaling checks loss-of-effectiveness multiplies only the
// faulted rotor and only inside the window.
func TestLoERotorScaling(t *testing.T) {
	in := actuatorInjection(LossOfEffectiveness, 1)
	in.Factor = 0.25
	j := mkActuator(t, in)
	cmd := physics.Rotors{0.8, 0.8, 0.8, 0.8}

	pre := j.ApplyActuator(10, cmd)
	if pre != cmd {
		t.Errorf("pre-window commands mutated: %v", pre)
	}
	mid := j.ApplyActuator(95, cmd)
	want := cmd
	want[1] = 0.8 * 0.25
	if mid != want {
		t.Errorf("in-window = %v, want %v", mid, want)
	}
	post := j.ApplyActuator(120, cmd)
	if post != cmd {
		t.Errorf("post-window commands mutated: %v", post)
	}
	if j.AppliedSamples() != 1 {
		t.Errorf("AppliedSamples = %d, want 1", j.AppliedSamples())
	}
}

// TestLoEDefaultFactor checks Factor 0 falls back to DefaultLoEFactor.
func TestLoEDefaultFactor(t *testing.T) {
	j := mkActuator(t, actuatorInjection(LossOfEffectiveness, 0))
	out := j.ApplyActuator(95, physics.Rotors{1, 1, 1, 1})
	if out[0] != DefaultLoEFactor {
		t.Errorf("default LoE output %v, want %v", out[0], DefaultLoEFactor)
	}
}

// TestStuckRotorFreezesLastCommand checks the stuck primitive holds the
// last pre-window command for the faulted rotor.
func TestStuckRotorFreezesLastCommand(t *testing.T) {
	j := mkActuator(t, actuatorInjection(StuckRotor, 2))
	j.ApplyActuator(89, physics.Rotors{0.1, 0.2, 0.33, 0.4}) // records frozenCmd
	out := j.ApplyActuator(95, physics.Rotors{0.9, 0.9, 0.9, 0.9})
	if out[2] != 0.33 {
		t.Errorf("stuck rotor = %v, want frozen 0.33", out[2])
	}
	for _, i := range []int{0, 1, 3} {
		if out[i] != 0.9 {
			t.Errorf("healthy rotor %d = %v, want 0.9", i, out[i])
		}
	}
}

// TestStuckSeedMatchesForkPath checks SeedStuck plants the same frozen
// command a straight-through pre-window call would have recorded — the
// invariant the checkpoint fork relies on.
func TestStuckSeedMatchesForkPath(t *testing.T) {
	cmd := physics.Rotors{0.5, 0.6, 0.7, 0.8}
	straight := mkActuator(t, actuatorInjection(StuckRotor, 0))
	straight.ApplyActuator(89.9, cmd)

	forked := mkActuator(t, actuatorInjection(StuckRotor, 0))
	forked.SeedStuck(cmd)

	in := physics.Rotors{0.2, 0.2, 0.2, 0.2}
	a, b := straight.ApplyActuator(95, in), forked.ApplyActuator(95, in)
	if a != b {
		t.Errorf("straight %v != seeded %v", a, b)
	}
}

// TestFloatRotorZeroes checks the float primitive (free-spinning,
// unpowered motor) forces the faulted rotor's command to zero.
func TestFloatRotorZeroes(t *testing.T) {
	j := mkActuator(t, actuatorInjection(FloatRotor, 3))
	out := j.ApplyActuator(95, physics.Rotors{0.7, 0.7, 0.7, 0.7})
	if out[3] != 0 {
		t.Errorf("float rotor = %v, want 0", out[3])
	}
}

// TestActuatorSnapshotRestoresFrozenCmd checks a copy of the injector
// carries the stuck-command capture across a checkpoint, and that the
// copy and its source evolve independently afterwards.
func TestActuatorSnapshotRestoresFrozenCmd(t *testing.T) {
	j := mkActuator(t, actuatorInjection(StuckRotor, 1))
	j.ApplyActuator(89, physics.Rotors{0.11, 0.22, 0.33, 0.44})
	j2 := *j
	j.ApplyActuator(89.5, physics.Rotors{0.55, 0.55, 0.55, 0.55})

	out := j2.ApplyActuator(95, physics.Rotors{0.9, 0.9, 0.9, 0.9})
	if out[1] != 0.22 {
		t.Errorf("copied stuck rotor = %v, want 0.22", out[1])
	}
	if out := j.ApplyActuator(95, physics.Rotors{0.9, 0.9, 0.9, 0.9}); out[1] != 0.55 {
		t.Errorf("source stuck rotor = %v, want 0.55", out[1])
	}
}

func TestActuatorLabels(t *testing.T) {
	in := actuatorInjection(LossOfEffectiveness, 0)
	if in.Label() == "" {
		t.Error("empty actuator label")
	}
}
