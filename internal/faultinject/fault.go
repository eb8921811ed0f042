// Package faultinject implements the paper's IMU fault model and the
// injector that corrupts sensor output before the flight controller reads
// it — the role the dedicated fault-injection tool plays in the paper's
// VMware-hosted platform.
//
// Seven injection primitives (Table I's "Can be represented by" column)
// are applied to one of three targets (Accelerometer, Gyrometer, or the
// whole IMU) inside a time window [Start, Start+Duration). The registry in
// registry.go maps the fourteen surveyed real-world fault classes to these
// primitives.
//
// Beyond the paper's sensor rows, the injector also models actuator faults
// addressing individual rotors — loss-of-effectiveness, stuck, and float
// primitives on TargetRotor — following fdcl-ftc's actuator fault set, so
// redundancy campaigns can contrast IMU and rotor failures on the same
// harness.
package faultinject

import (
	"fmt"
	"strings"
	"time"

	"uavres/internal/mathx"
	"uavres/internal/physics"
	"uavres/internal/sensors"
)

// Primitive is one of the seven injectable faulty-value generators.
type Primitive int

// The seven primitives, in the order the paper lists them in III-A.
const (
	// FixedValue injects a random-but-constant value drawn once per
	// injection window.
	FixedValue Primitive = iota + 1
	// Zeros injects all-zero output ("no updates/zeros").
	Zeros
	// Freeze repeats the last value seen before the window started.
	Freeze
	// Random injects a fresh uniform in-range value every sample.
	Random
	// MinValue injects the sensor's minimum allowed (negative) value.
	MinValue
	// MaxValue injects the sensor's maximum allowed value.
	MaxValue
	// Noise adds a "not so drastic" random perturbation to the true value.
	Noise

	// Actuator primitives follow the sensor rows; they apply only to
	// TargetRotor and corrupt motor commands instead of sensor samples.

	// LossOfEffectiveness scales one rotor's command by Injection.Factor
	// (partial prop damage / thrust loss).
	LossOfEffectiveness
	// StuckRotor holds one rotor at its last pre-window command (ESC
	// desync / controller lockup).
	StuckRotor
	// FloatRotor drives one rotor to zero thrust (motor/ESC burnout; the
	// rotor free-wheels).
	FloatRotor
)

// Primitives lists the paper's seven sensor injection primitives.
func Primitives() []Primitive {
	return []Primitive{FixedValue, Zeros, Freeze, Random, MinValue, MaxValue, Noise}
}

// ActuatorPrimitives lists the rotor fault primitives.
func ActuatorPrimitives() []Primitive {
	return []Primitive{LossOfEffectiveness, StuckRotor, FloatRotor}
}

// Actuator reports whether p corrupts motor commands rather than sensor
// samples.
func (p Primitive) Actuator() bool {
	return p == LossOfEffectiveness || p == StuckRotor || p == FloatRotor
}

// String implements fmt.Stringer with the paper's table labels.
func (p Primitive) String() string {
	switch p {
	case FixedValue:
		return "Fixed Value"
	case Zeros:
		return "Zeros"
	case Freeze:
		return "Freeze"
	case Random:
		return "Random"
	case MinValue:
		return "Min"
	case MaxValue:
		return "Max"
	case Noise:
		return "Noise"
	case LossOfEffectiveness:
		return "LoE"
	case StuckRotor:
		return "Stuck"
	case FloatRotor:
		return "Float"
	default:
		return fmt.Sprintf("Primitive(%d)", int(p))
	}
}

// ParsePrimitive converts a case-insensitive label ("freeze", "min",
// "fixed value", "fixed") to a Primitive.
func ParsePrimitive(s string) (Primitive, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "fixed value", "fixed", "fixedvalue":
		return FixedValue, nil
	case "zeros", "zero":
		return Zeros, nil
	case "freeze":
		return Freeze, nil
	case "random":
		return Random, nil
	case "min", "minvalue", "min value":
		return MinValue, nil
	case "max", "maxvalue", "max value":
		return MaxValue, nil
	case "noise":
		return Noise, nil
	case "loe", "loss-of-effectiveness", "lossofeffectiveness":
		return LossOfEffectiveness, nil
	case "stuck":
		return StuckRotor, nil
	case "float":
		return FloatRotor, nil
	default:
		return 0, fmt.Errorf("faultinject: unknown primitive %q", s)
	}
}

// Target selects which IMU component an injection corrupts.
type Target int

// The three injection targets studied in the paper.
const (
	// TargetAccel corrupts only the accelerometer axes.
	TargetAccel Target = iota + 1
	// TargetGyro corrupts only the gyroscope axes.
	TargetGyro
	// TargetIMU corrupts both (the paper's "entire IMU" case).
	TargetIMU
	// TargetRotor corrupts the motor command of the rotor selected by
	// Injection.Rotor (actuator primitives only).
	TargetRotor
)

// Targets lists the paper's three sensor injection targets. TargetRotor is
// deliberately excluded: callers enumerating IMU fault axes (spec matrix
// targets, per-fault aggregation of sensor rows) must not silently grow an
// actuator row.
func Targets() []Target { return []Target{TargetAccel, TargetGyro, TargetIMU} }

// String implements fmt.Stringer with the paper's labels.
func (t Target) String() string {
	switch t {
	case TargetAccel:
		return "Acc"
	case TargetGyro:
		return "Gyro"
	case TargetIMU:
		return "IMU"
	case TargetRotor:
		return "Rotor"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// ParseTarget converts a case-insensitive label ("acc", "gyro", "imu").
func ParseTarget(s string) (Target, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "acc", "accel", "accelerometer":
		return TargetAccel, nil
	case "gyro", "gyrometer", "gyroscope":
		return TargetGyro, nil
	case "imu", "both":
		return TargetIMU, nil
	case "rotor", "actuator", "motor":
		return TargetRotor, nil
	default:
		return 0, fmt.Errorf("faultinject: unknown target %q", s)
	}
}

// Scope selects how many of the vehicle's redundant IMUs the fault
// strikes.
type Scope int

// Injection scopes.
const (
	// ScopeAllUnits (the zero value) corrupts every redundant IMU — the
	// paper's assumption: "the fault is assumed to affect all redundant
	// sensors". Sensor isolation can never find a healthy unit.
	ScopeAllUnits Scope = iota
	// ScopePrimaryUnit corrupts only IMU unit 0, so the failsafe's
	// isolation stage can recover by switching — the ablation of the
	// paper's all-units assumption.
	ScopePrimaryUnit
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch s {
	case ScopeAllUnits:
		return "all-units"
	case ScopePrimaryUnit:
		return "primary-unit"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// ParseScope converts a case-insensitive label ("all", "all-units",
// "primary", "primary-unit") to a Scope. The empty string is the paper's
// default, ScopeAllUnits.
func ParseScope(s string) (Scope, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "all", "all-units", "allunits":
		return ScopeAllUnits, nil
	case "primary", "primary-unit", "primaryunit":
		return ScopePrimaryUnit, nil
	default:
		return 0, fmt.Errorf("faultinject: unknown scope %q", s)
	}
}

// Injection describes one fault-injection experiment: what to inject,
// where, and when. The paper uses Start = 90 s and Duration in
// {2, 5, 10, 30} s.
type Injection struct {
	Primitive Primitive     `json:"primitive"`
	Target    Target        `json:"target"`
	Start     time.Duration `json:"start"`
	Duration  time.Duration `json:"duration"`
	// Scope selects which redundant IMUs are affected (default: all,
	// the paper's assumption).
	Scope Scope `json:"scope,omitempty"`
	// Seed drives the primitive's randomness (Fixed draw, Random stream,
	// Noise stream) independently of the environment randomness.
	Seed int64 `json:"seed"`
	// Rotor selects which rotor an actuator injection strikes
	// (TargetRotor only; must be a valid index for the flown airframe).
	Rotor int `json:"rotor,omitempty"`
	// Factor is the LossOfEffectiveness thrust multiplier in [0, 1);
	// zero means DefaultLoEFactor.
	Factor float64 `json:"factor,omitempty"`
}

// DefaultLoEFactor is the LossOfEffectiveness multiplier used when an
// injection leaves Factor zero: the damaged rotor keeps 30% of its
// commanded thrust.
const DefaultLoEFactor = 0.3

// SensorTarget reports whether the injection corrupts the IMU sample
// stream (as opposed to motor commands).
func (in Injection) SensorTarget() bool { return in.Target != TargetRotor }

// LoEFactor returns the effective LossOfEffectiveness multiplier.
func (in Injection) LoEFactor() float64 {
	if in.Factor > 0 {
		return in.Factor
	}
	return DefaultLoEFactor
}

// AffectsUnit reports whether the fault strikes IMU unit i.
func (in Injection) AffectsUnit(i int) bool {
	return in.Scope == ScopeAllUnits || i == 0
}

// Label returns the paper's naming convention, e.g. "Gyro Freeze".
func (in Injection) Label() string {
	return in.Target.String() + " " + in.Primitive.String()
}

// Validate reports whether the injection is well-formed.
func (in Injection) Validate() error {
	switch in.Primitive {
	case FixedValue, Zeros, Freeze, Random, MinValue, MaxValue, Noise,
		LossOfEffectiveness, StuckRotor, FloatRotor:
	default:
		return fmt.Errorf("faultinject: invalid primitive %d", int(in.Primitive))
	}
	switch in.Target {
	case TargetAccel, TargetGyro, TargetIMU, TargetRotor:
	default:
		return fmt.Errorf("faultinject: invalid target %d", int(in.Target))
	}
	if in.Primitive.Actuator() != (in.Target == TargetRotor) {
		return fmt.Errorf("faultinject: primitive %s requires %s target",
			in.Primitive, map[bool]string{true: "a rotor", false: "a sensor"}[in.Primitive.Actuator()])
	}
	if in.Target == TargetRotor {
		if in.Rotor < 0 || in.Rotor >= physics.MaxRotors {
			return fmt.Errorf("faultinject: rotor index %d outside [0, %d)", in.Rotor, physics.MaxRotors)
		}
		if in.Scope != ScopeAllUnits {
			return fmt.Errorf("faultinject: IMU scope %s is meaningless for a rotor fault", in.Scope)
		}
	} else if in.Rotor != 0 {
		return fmt.Errorf("faultinject: rotor index set on sensor target %s", in.Target)
	}
	if in.Factor != 0 && in.Primitive != LossOfEffectiveness { //lint:allow floatcmp zero is the explicit "use default" sentinel
		return fmt.Errorf("faultinject: factor is only valid for LoE, not %s", in.Primitive)
	}
	if in.Factor < 0 || in.Factor >= 1 {
		return fmt.Errorf("faultinject: LoE factor %v outside [0, 1)", in.Factor)
	}
	if in.Start < 0 {
		return fmt.Errorf("faultinject: negative start %v", in.Start)
	}
	if in.Duration <= 0 {
		return fmt.Errorf("faultinject: non-positive duration %v", in.Duration)
	}
	switch in.Scope {
	case ScopeAllUnits, ScopePrimaryUnit:
	default:
		return fmt.Errorf("faultinject: invalid scope %d", int(in.Scope))
	}
	return nil
}

// NoiseAmpFraction scales the Noise primitive's perturbation amplitude as a
// fraction of the sensor full-scale range — "not so drastic" relative to
// the range, but large against normal flight signal levels.
const NoiseAmpFraction = 0.10

// Injector applies one Injection to an IMU sample stream. It is a plain
// value, so copying an Injector copies its stream and window state. It is
// not safe for concurrent use; each simulated vehicle owns one.
type Injector struct {
	inj Injection
	rng mathx.Rand

	startSec float64
	endSec   float64

	// Lazily captured state.
	windowEntered bool
	frozen        sensors.IMUSample
	fixedAccel    mathx.Vec3
	fixedGyro     mathx.Vec3
	frozenCmd     physics.Rotors // last pre-window motor commands (StuckRotor)

	applied int // number of corrupted samples
}

// New returns an injector for the given experiment description.
func New(inj Injection) (Injector, error) {
	if err := inj.Validate(); err != nil {
		return Injector{}, err
	}
	return Injector{
		inj:      inj,
		rng:      *mathx.NewRand(inj.Seed),
		startSec: inj.Start.Seconds(),
		endSec:   inj.Start.Seconds() + inj.Duration.Seconds(),
	}, nil
}

// SeedFreeze installs the last pre-window sample, as if the injector had
// observed the sample stream up to that point. A run forked from a
// checkpoint taken before this injector's window uses it so the Freeze
// primitive replays the exact value a straight-through run would capture.
func (j *Injector) SeedFreeze(s sensors.IMUSample) { j.frozen = s }

// SeedStuck installs the last pre-window motor commands, the actuator
// analogue of SeedFreeze: a run forked from a checkpoint taken before this
// injector's window uses it so StuckRotor holds the exact command a
// straight-through run would capture.
func (j *Injector) SeedStuck(cmd physics.Rotors) { j.frozenCmd = cmd }

// Injection returns the experiment description.
func (j *Injector) Injection() Injection { return j.inj }

// Active reports whether the fault window covers sim time t.
func (j *Injector) Active(t float64) bool {
	return t >= j.startSec && t < j.endSec
}

// AppliedSamples returns how many samples were corrupted so far.
func (j *Injector) AppliedSamples() int { return j.applied }

// Apply corrupts the sample if its timestamp falls inside the fault window;
// outside the window samples pass through untouched. The pre-window sample
// stream is also observed so Freeze can capture the last good value.
func (j *Injector) Apply(s sensors.IMUSample) sensors.IMUSample {
	if !j.Active(s.T) {
		if s.T < j.startSec {
			j.frozen = s // remember the most recent pre-fault sample
		}
		return s
	}
	if !j.windowEntered {
		j.windowEntered = true
		// Fixed values are drawn once per injection, uniform in range,
		// independently per axis — "a Random constant value".
		j.fixedAccel = j.uniformVec(sensors.AccelRange)
		j.fixedGyro = j.uniformVec(sensors.GyroRange)
	}
	j.applied++

	if j.inj.Target == TargetAccel || j.inj.Target == TargetIMU {
		s.Accel = j.corrupt(s.Accel, j.frozen.Accel, j.fixedAccel, sensors.AccelRange)
	}
	if j.inj.Target == TargetGyro || j.inj.Target == TargetIMU {
		s.Gyro = j.corrupt(s.Gyro, j.frozen.Gyro, j.fixedGyro, sensors.GyroRange)
	}
	return s
}

// ApplyActuator corrupts the motor command vector if control-cycle time t
// falls inside the fault window; outside the window commands pass through
// untouched. The pre-window command stream is observed so StuckRotor can
// hold the last healthy command.
func (j *Injector) ApplyActuator(t float64, cmd physics.Rotors) physics.Rotors {
	if !j.Active(t) {
		if t < j.startSec {
			j.frozenCmd = cmd // remember the most recent pre-fault commands
		}
		return cmd
	}
	j.applied++
	r := j.inj.Rotor
	switch j.inj.Primitive {
	case LossOfEffectiveness:
		cmd[r] *= j.inj.LoEFactor()
	case StuckRotor:
		cmd[r] = j.frozenCmd[r]
	case FloatRotor:
		cmd[r] = 0
	}
	return cmd
}

func (j *Injector) corrupt(value, frozen, fixed mathx.Vec3, rangeLimit float64) mathx.Vec3 {
	switch j.inj.Primitive {
	case FixedValue:
		return fixed
	case Zeros:
		return mathx.Zero3
	case Freeze:
		return frozen
	case Random:
		return j.uniformVec(rangeLimit)
	case MinValue:
		return mathx.V3(-rangeLimit, -rangeLimit, -rangeLimit)
	case MaxValue:
		return mathx.V3(rangeLimit, rangeLimit, rangeLimit)
	case Noise:
		amp := NoiseAmpFraction * rangeLimit
		return value.Add(j.uniformVec(amp)).Clamp(rangeLimit)
	default:
		return value
	}
}

// uniformVec draws a vector with each component uniform in [-amp, amp].
func (j *Injector) uniformVec(amp float64) mathx.Vec3 {
	return mathx.Vec3{
		X: (2*j.rng.Float64() - 1) * amp,
		Y: (2*j.rng.Float64() - 1) * amp,
		Z: (2*j.rng.Float64() - 1) * amp,
	}
}
