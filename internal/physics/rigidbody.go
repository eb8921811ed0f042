package physics

import (
	"fmt"
	"math"

	"uavres/internal/mathx"
)

// Mixer converts between the control wrench (total thrust + body torques)
// and per-rotor thrusts for an N-rotor airframe. Both the simulator's
// forward model and the controller's allocation use this one type, so they
// can never disagree about geometry. The allocation side is the precomputed
// pseudo-inverse of the forward model: for the symmetric airframes the
// Gram matrix B*B' is diagonal, so each column reduces to a dimensionless
// numerator over an exact axis divisor — for QuadX this reproduces the
// legacy closed form bit for bit.
type Mixer struct {
	n    int     // rotor count
	tMax float64 // max thrust per rotor

	// Forward-model torque coefficient of rotor i per newton of thrust.
	rollK, pitchK, yawK Rotors

	// Pseudo-inverse allocation:
	//   t[i] = thrustN/divT + allocRoll[i]*tau.X/divRoll +
	//          allocPitch[i]*tau.Y/divPitch + allocYaw[i]*tau.Z/divYaw
	allocRoll, allocPitch, allocYaw Rotors
	divT, divRoll, divPitch, divYaw float64
}

// NewMixer builds a mixer for the given airframe.
func NewMixer(p Params) Mixer {
	d := p.Layout.Descriptor(p)
	m := Mixer{n: d.N, tMax: d.MaxThrustN}
	var sumRoll, sumPitch, sumYaw float64
	for i := 0; i < d.N; i++ {
		m.allocRoll[i] = -d.CosY[i]
		m.allocPitch[i] = d.CosX[i]
		m.allocYaw[i] = d.Dir[i]
		m.rollK[i] = m.allocRoll[i] * d.ScaleM
		m.pitchK[i] = m.allocPitch[i] * d.ScaleM
		m.yawK[i] = d.Dir[i] * p.TorqueCoeff
		sumRoll += m.allocRoll[i] * m.allocRoll[i]
		sumPitch += m.allocPitch[i] * m.allocPitch[i]
		sumYaw += d.Dir[i] * d.Dir[i]
	}
	m.divT = float64(d.N)
	m.divRoll = sumRoll * d.ScaleM
	m.divPitch = sumPitch * d.ScaleM
	m.divYaw = sumYaw * p.TorqueCoeff
	return m
}

// N returns the rotor count of the mixer's airframe.
func (m *Mixer) N() int { return m.n }

// MaxThrustPerRotorN returns the per-rotor thrust ceiling (N).
func (m *Mixer) MaxThrustPerRotorN() float64 { return m.tMax }

// MaxTotalThrustN returns the collective thrust ceiling across all rotors.
func (m *Mixer) MaxTotalThrustN() float64 { return m.tMax * float64(m.n) }

// Forward computes total thrust (N, along body -Z) and body torque (N m)
// from per-rotor thrusts (N).
func (m *Mixer) Forward(t Rotors) (thrust float64, torque mathx.Vec3) {
	for i := 0; i < m.n; i++ {
		thrust += t[i]
		torque.X += m.rollK[i] * t[i]
		torque.Y += m.pitchK[i] * t[i]
		torque.Z += m.yawK[i] * t[i]
	}
	return thrust, torque
}

// Allocate inverts Forward: it distributes a desired wrench across the
// rotors and returns normalized commands in [0, 1]. Saturation preserves
// the thrust axis first (desaturation by uniform shift), matching how PX4's
// mixer prioritizes attitude authority.
func (m *Mixer) Allocate(thrustN float64, torque mathx.Vec3) Rotors {
	var t Rotors
	for i := 0; i < m.n; i++ {
		t[i] = thrustN/m.divT +
			m.allocRoll[i]*torque.X/m.divRoll +
			m.allocPitch[i]*torque.Y/m.divPitch +
			m.allocYaw[i]*torque.Z/m.divYaw
	}
	// Uniform shift desaturation: keep differential (attitude) terms intact.
	// The builtin min/max inline; math.Min/math.Max do not, and on finite
	// or NaN inputs they select the same values.
	minT, maxT := t[0], t[0]
	for i := 1; i < m.n; i++ {
		minT = min(minT, t[i])
		maxT = max(maxT, t[i])
	}
	if minT < 0 {
		shift := min(-minT, m.tMax*float64(m.n)) // bounded shift
		for i := 0; i < m.n; i++ {
			t[i] += shift
		}
	}
	if maxT > m.tMax {
		// Scale down around the mean only if still saturated.
		for i := 0; i < m.n; i++ {
			if t[i] > m.tMax {
				t[i] = m.tMax
			}
			if t[i] < 0 {
				t[i] = 0
			}
		}
	}
	var cmd Rotors
	for i := 0; i < m.n; i++ {
		cmd[i] = mathx.Clamp(t[i]/m.tMax, 0, 1)
	}
	return cmd
}

// Frame is an airframe's launch constants: its parameters and the mixer
// built from them. Nothing in it changes in flight, so a vehicle holds
// one frame beside the Motion it snapshots, and passes it to every step.
type Frame struct {
	Params Params
	Mixer  Mixer
}

// NewFrame returns the frame of p, which the caller has validated.
func NewFrame(p Params) Frame { return Frame{Params: p, Mixer: NewMixer(p)} }

// Motion is the evolving part of one multirotor rigid body: its state,
// wind process and rotor commands. It is a plain value, so copying a
// Motion copies its complete dynamic state.
type Motion struct {
	state State
	wind  Wind

	cmd Rotors // latest normalized rotor commands

	// Cached motor-lag coefficient 1-exp(-dt/tau), keyed on the exact
	// inputs that produced it. The 500 Hz loop always passes the same dt,
	// so the Exp is computed once per flight instead of per step.
	cacheLagDt, cacheLagTau, lag float64

	lastSpecificForce mathx.Vec3 // body-frame specific force (what an ideal accel senses)
	lastAirspeed      float64
	touchdownSpeed    float64 // impact speed at the most recent air->ground transition
	wasAirborne       bool
}

// NewMotion returns a motion at rest on the ground at the world origin,
// flying in wind.
func NewMotion(wind Wind) Motion {
	return Motion{
		state: State{Att: mathx.QuatIdentity()},
		wind:  wind,
		// On the ground gravity is cancelled by the surface: an ideal
		// accelerometer reads +1g along body -Z (specific force up).
		lastSpecificForce: mathx.V3(0, 0, -Gravity),
	}
}

// Body is a standalone rigid body: a Motion flying in its own Frame.
type Body struct {
	Frame
	Motion
}

// NewBody returns a body at rest on the ground at the world origin, flying
// in a copy of wind (calm when nil).
func NewBody(p Params, wind *Wind) (*Body, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("physics: %w", err)
	}
	if wind == nil {
		wind = CalmWind()
	}
	return &Body{Frame: NewFrame(p), Motion: NewMotion(*wind)}, nil
}

// Step advances the body by dt seconds in its own frame.
func (b *Body) Step(dt float64) { b.Motion.Step(&b.Frame, dt) }

// State returns a copy of the current rigid-body state.
func (b *Motion) State() State { return b.state }

// SetState overrides the body state (tests and scenario setup).
func (b *Motion) SetState(s State) { b.state = s }

// SetMotorCommands sets the normalized rotor commands in [0, 1]; values
// outside the range are clamped.
func (b *Motion) SetMotorCommands(cmd Rotors) {
	for i := range cmd {
		b.cmd[i] = mathx.Clamp(cmd[i], 0, 1)
	}
}

// MotorCommands returns the latest normalized rotor commands — the value
// actuator fault forking seeds a stuck rotor from.
func (b *Motion) MotorCommands() Rotors { return b.cmd }

// RotorStates returns the lagged normalized rotor thrust states, the
// quantity a per-rotor FDI monitor compares against its expected model.
func (b *Motion) RotorStates() Rotors { return b.state.Rotor }

// SpecificForce returns the body-frame specific force (m/s^2) from the last
// step — the quantity an ideal accelerometer measures.
func (b *Motion) SpecificForce() mathx.Vec3 { return b.lastSpecificForce }

// AngularRate returns the true body angular rate — the quantity an ideal
// gyroscope measures.
func (b *Motion) AngularRate() mathx.Vec3 { return b.state.Omega }

// Airspeed returns the magnitude of air-relative velocity from the last step.
func (b *Motion) Airspeed() float64 { return b.lastAirspeed }

// TouchdownSpeed returns the total speed at the most recent transition from
// airborne to ground contact, or 0 if the vehicle has not touched down.
// The crash detector uses it to distinguish a landing from an impact.
func (b *Motion) TouchdownSpeed() float64 { return b.touchdownSpeed }

// Step advances the motion by dt seconds in frame f using semi-implicit
// Euler with exact quaternion and motor-lag integration. dt must be
// positive and small relative to the vehicle dynamics (<= 5 ms
// recommended). It is literally StepWind followed by StepWithWind — the
// split the batch runner uses to advance one shared wind process and feed
// its gust into every lockstep fork (the OU gust is a pure function of
// time, independent of body state, so the deviates are shareable).
func (b *Motion) Step(f *Frame, dt float64) {
	b.StepWithWind(f, dt, b.wind.Step(dt))
}

// StepWind advances only the body's wind process by dt and returns the
// world-frame wind velocity, consuming exactly the deviates Step would.
func (b *Motion) StepWind(dt float64) mathx.Vec3 { return b.wind.Step(dt) }

// StepWithWind is Step with an externally advanced wind sample: identical
// dynamics, no draw from the body's own wind process.
func (b *Motion) StepWithWind(f *Frame, dt float64, windNED mathx.Vec3) {
	p := &f.Params
	s := &b.state

	// Motor first-order lag, integrated exactly.
	//lint:allow floatcmp cache key is the exact previous inputs; any change recomputes
	if dt != b.cacheLagDt || p.MotorTau != b.cacheLagTau {
		b.cacheLagDt, b.cacheLagTau = dt, p.MotorTau
		b.lag = 1 - math.Exp(-dt/p.MotorTau)
	}
	lag := b.lag
	var rotorThrust Rotors
	for i := 0; i < f.Mixer.n; i++ {
		// A rotor commanded to 0 would park on a subnormal tail; flush
		// it to 0, which every consumer absorbs bit for bit.
		s.Rotor[i] = mathx.FlushSubnormal(s.Rotor[i] + (b.cmd[i]-s.Rotor[i])*lag)
		rotorThrust[i] = s.Rotor[i] * p.MaxThrustPerRotorN
	}
	thrustN, torque := f.Mixer.Forward(rotorThrust)

	// Aerodynamic drag against air-relative velocity, in the body frame.
	airRelWorld := s.Vel.Sub(windNED)
	b.lastAirspeed = airRelWorld.Norm()
	airRelBody := s.Att.RotateInv(airRelWorld)
	dragBody := airRelBody.Hadamard(p.LinDragCoeff).Neg()

	// Non-gravitational force in the body frame: rotor thrust along -Z
	// plus drag (plus ground reaction, added below in the world frame).
	forceBody := mathx.V3(0, 0, -thrustN).Add(dragBody)
	forceWorld := s.Att.Rotate(forceBody)

	// Ground contact: spring-damper normal force plus horizontal friction.
	airborne := s.Pos.Z < 0
	if !airborne {
		pen := s.Pos.Z // penetration depth (>= 0)
		// Upward reaction: spring on penetration plus damping against the
		// downward velocity (Vel.Z > 0 is moving down in NED).
		normal := (p.GroundStiffness*pen + p.GroundDamping*s.Vel.Z) * p.MassKg
		if normal < 0 {
			normal = 0 // ground only pushes, never pulls
		}
		forceWorld.Z -= normal
		// Friction decelerates horizontal sliding and spins.
		forceWorld.X -= 4 * p.MassKg * s.Vel.X
		forceWorld.Y -= 4 * p.MassKg * s.Vel.Y
		torque = torque.Sub(s.Omega.Scale(0.3 * p.Inertia.MaxAbs() * p.GroundDamping))
	}
	if b.wasAirborne && !airborne {
		b.touchdownSpeed = s.Vel.Norm()
	}
	b.wasAirborne = airborne

	// Specific force excludes gravity: it is what an accelerometer senses.
	b.lastSpecificForce = s.Att.RotateInv(forceWorld.Scale(1 / p.MassKg))

	// Translational dynamics (semi-implicit Euler: velocity first).
	accel := forceWorld.Scale(1 / p.MassKg).Add(mathx.V3(0, 0, Gravity))
	s.Vel = s.Vel.Add(accel.Scale(dt))
	s.Pos = s.Pos.Add(s.Vel.Scale(dt))
	if s.Pos.Z > 0.5 {
		// Hard floor: the spring model cannot be driven deeper than half a
		// meter; clamp to keep a crashed vehicle from tunnelling.
		s.Pos.Z = 0.5
		if s.Vel.Z > 0 {
			s.Vel.Z = 0
		}
	}

	// Rotational dynamics: I*dw = tau - w x (I w) - angular drag.
	iw := p.Inertia.Hadamard(s.Omega)
	gyroscopic := s.Omega.Cross(iw)
	angDrag := s.Omega.Hadamard(p.AngDragCoeff)
	torqueTotal := torque.Sub(gyroscopic).Sub(angDrag)
	alpha := mathx.Vec3{
		X: torqueTotal.X / p.Inertia.X,
		Y: torqueTotal.Y / p.Inertia.Y,
		Z: torqueTotal.Z / p.Inertia.Z,
	}
	s.Omega = s.Omega.Add(alpha.Scale(dt))
	// Physical rate saturation: aerodynamic and structural limits keep real
	// airframes well below this; it also keeps the integrator stable when
	// the controller is fed garbage rates by an injected fault.
	const maxRate = 50 // rad/s (~2865 deg/s)
	s.Omega = s.Omega.Clamp(maxRate)

	// Exact attitude integration.
	s.Att = s.Att.Integrate(s.Omega, dt)
}
