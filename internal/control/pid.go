// Package control implements the cascaded flight controller that replaces
// PX4's multicopter control stack in the paper's setup: position →
// velocity → attitude → body-rate loops feeding the mixer.
//
// The loop structure mirrors PX4 in the one respect the paper's results
// hinge on: the innermost body-rate loop consumes the RAW gyroscope
// stream, not the EKF attitude, while the outer loops consume EKF
// estimates. This is why gyro faults destabilize the vehicle within
// milliseconds while accelerometer faults merely corrupt navigation.
package control

import (
	"uavres/internal/mathx"
)

// PID is a scalar PID controller with integral anti-windup clamping and a
// low-pass filtered derivative term.
type PID struct {
	// Kp, Ki, Kd are the proportional, integral, and derivative gains.
	Kp, Ki, Kd float64
	// IntLimit bounds the absolute integral contribution (anti-windup).
	IntLimit float64
	// OutLimit bounds the absolute output; zero means unbounded.
	OutLimit float64

	integral float64
	deriv    mathx.Derivative
}

// NewPID returns a PID for a loop running every dt seconds; the derivative
// term is low-pass filtered at derivCutoffHz.
func NewPID(kp, ki, kd, intLimit, outLimit, derivCutoffHz, dt float64) PID {
	return PID{
		Kp: kp, Ki: ki, Kd: kd,
		IntLimit: intLimit, OutLimit: outLimit,
		deriv: *mathx.NewDerivative(derivCutoffHz, dt),
	}
}

// Update computes the control output for the given error over dt seconds.
func (c *PID) Update(err, dt float64) float64 {
	c.integral += err * c.Ki * dt
	c.integral = mathx.Clamp(c.integral, -c.IntLimit, c.IntLimit)
	out := c.Kp*err + c.integral + c.Kd*c.deriv.Update(err)
	if c.OutLimit > 0 {
		out = mathx.Clamp(out, -c.OutLimit, c.OutLimit)
	}
	return out
}

// Reset clears integral and derivative state.
func (c *PID) Reset() {
	c.integral = 0
	c.deriv.Reset()
}

// Integral returns the current integral contribution (diagnostics).
func (c *PID) Integral() float64 { return c.integral }

// PID3 applies three independent PID controllers to a vector error.
type PID3 struct {
	x, y, z PID
}

// NewPID3 builds a vector PID with per-axis gains. Gains are given as
// vectors so the vertical axis can be tuned separately.
func NewPID3(kp, ki, kd mathx.Vec3, intLimit, outLimit mathx.Vec3, derivCutoffHz, dt float64) PID3 {
	return PID3{
		x: NewPID(kp.X, ki.X, kd.X, intLimit.X, outLimit.X, derivCutoffHz, dt),
		y: NewPID(kp.Y, ki.Y, kd.Y, intLimit.Y, outLimit.Y, derivCutoffHz, dt),
		z: NewPID(kp.Z, ki.Z, kd.Z, intLimit.Z, outLimit.Z, derivCutoffHz, dt),
	}
}

// Update computes the vector control output.
func (c *PID3) Update(err mathx.Vec3, dt float64) mathx.Vec3 {
	return mathx.Vec3{
		X: c.x.Update(err.X, dt),
		Y: c.y.Update(err.Y, dt),
		Z: c.z.Update(err.Z, dt),
	}
}
