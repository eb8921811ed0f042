package control

import (
	"math"

	"uavres/internal/mathx"
	"uavres/internal/physics"
)

// Gains collects the cascade's tuning constants.
type Gains struct {
	// PosP is the position-error → velocity-setpoint gain (horizontal,
	// horizontal, vertical).
	PosP mathx.Vec3
	// VelP/VelI are the velocity-loop PID gains producing an acceleration
	// setpoint.
	VelP mathx.Vec3
	VelI mathx.Vec3
	// AttP is the attitude-error → rate-setpoint gain.
	AttP mathx.Vec3
	// RateP/RateI/RateD are the body-rate loop gains producing an angular
	// acceleration setpoint (multiplied by inertia into torque).
	RateP mathx.Vec3
	RateI mathx.Vec3
	RateD mathx.Vec3
	// MaxTiltRad limits commanded tilt.
	MaxTiltRad float64
	// MaxRate limits commanded body rates (roll/pitch X,Y; yaw Z), rad/s.
	MaxRate mathx.Vec3
	// MaxAccel limits the commanded horizontal acceleration (m/s^2).
	MaxAccel float64
}

// DefaultGains returns tuning for the physics.DefaultParams airframe.
func DefaultGains() Gains {
	return Gains{
		PosP:       mathx.V3(0.95, 0.95, 1.2),
		VelP:       mathx.V3(3.0, 3.0, 4.0),
		VelI:       mathx.V3(0.6, 0.6, 1.2),
		AttP:       mathx.V3(7.0, 7.0, 3.0),
		RateP:      mathx.V3(18, 18, 10),
		RateI:      mathx.V3(6, 6, 4),
		RateD:      mathx.V3(0.12, 0.12, 0),
		MaxTiltRad: mathx.Deg2Rad(35),
		MaxRate:    mathx.V3(3.8, 3.8, 1.6),
		MaxAccel:   6,
	}
}

// Estimate is the navigation solution the outer loops consume (from the
// EKF; never ground truth).
type Estimate struct {
	Att mathx.Quat
	Vel mathx.Vec3
	Pos mathx.Vec3
}

// Setpoint is the guidance command for one control cycle.
type Setpoint struct {
	// Pos is the position target (NED m).
	Pos mathx.Vec3
	// VelFF is a feed-forward velocity added to the position loop output
	// (used for trajectory tracking and forced descent during landing).
	VelFF mathx.Vec3
	// Yaw is the heading target (rad).
	Yaw float64
	// CruiseSpeed limits horizontal speed (m/s).
	CruiseSpeed float64
	// MaxClimb and MaxDescend limit vertical speed (m/s, both positive).
	MaxClimb   float64
	MaxDescend float64
}

// Diag exposes intermediate cascade quantities for logging and tests.
type Diag struct {
	VelSp    mathx.Vec3
	AccSp    mathx.Vec3
	AttSp    mathx.Quat
	RateSp   mathx.Vec3
	ThrustN  float64
	TorqueNm mathx.Vec3
}

// Law is a cascade's launch constants: its gains and the slope of its
// tilt limit. Nothing in it changes in flight, so a vehicle holds one law
// beside the Loops it snapshots, and passes it to every cycle.
type Law struct {
	gains      Gains
	tanMaxTilt float64 // math.Tan(gains.MaxTiltRad)
}

// NewLaw returns the law of the given gains.
func NewLaw(gains Gains) Law {
	return Law{gains: gains, tanMaxTilt: math.Tan(gains.MaxTiltRad)}
}

// Loops is the evolving part of the cascaded flight controller: its
// integrators and filters, a reconfigured allocation, and the yaw trig
// cache. It is a plain value, so copying Loops copies its complete state.
// Not safe for concurrent use; each vehicle owns one.
type Loops struct {
	velPID  PID3
	ratePID PID3

	// alloc, when hasAlloc is set, replaces the healthy mixer's
	// allocation with a reconfigured (condemned-rotor) pseudo-inverse.
	alloc    physics.Allocator
	hasAlloc bool

	// Cached sin/cos of the yaw setpoint, keyed on the exact input. The
	// guidance yaw is piecewise constant per mission leg, so the trig
	// pair is computed once per leg instead of at every control step.
	cacheYaw, cacheSinYaw, cacheCosYaw float64
}

// NewLoops returns loops with the given gains, running every dt seconds.
func NewLoops(gains Gains, dt float64) Loops {
	return Loops{
		velPID: NewPID3(
			gains.VelP, gains.VelI, mathx.Zero3,
			mathx.V3(3, 3, 4),  // integral clamp (m/s^2)
			mathx.V3(8, 8, 12), // acceleration clamp (m/s^2)
			10, dt,
		),
		ratePID: NewPID3(
			gains.RateP, gains.RateI, gains.RateD,
			mathx.V3(8, 8, 4),    // integral clamp (rad/s^2)
			mathx.V3(80, 80, 40), // angular accel clamp (rad/s^2)
			30, dt,
		),
	}
}

// SetAllocator installs a copy of (or, with nil, removes) a reconfigured
// allocation that overrides the healthy mixer when distributing the
// wrench.
func (c *Loops) SetAllocator(a *physics.Allocator) {
	c.alloc, c.hasAlloc = physics.Allocator{}, a != nil
	if a != nil {
		c.alloc = *a
	}
}

// Command runs one full cascade cycle of law k on airframe f and returns
// normalized motor commands. est comes from the EKF; gyroRaw is the raw
// (possibly fault-corrupted) gyro stream feeding the innermost loop.
func (c *Loops) Command(k *Law, f *physics.Frame, dt float64, est Estimate, gyroRaw mathx.Vec3, sp Setpoint) physics.Rotors {
	return c.cascade(k, f, dt, est, gyroRaw, sp, nil)
}

// Controller is a standalone cascaded flight controller: Loops flying
// their own Law and airframe.
type Controller struct {
	Loops
	law   Law
	frame physics.Frame
}

// New returns a controller for the given airframe, with loops running
// every dt seconds.
func New(gains Gains, params physics.Params, dt float64) *Controller {
	return &Controller{Loops: NewLoops(gains, dt), law: NewLaw(gains), frame: physics.NewFrame(params)}
}

// Update runs one cascade cycle under the controller's own law and
// airframe, and returns the cycle's intermediate quantities with its
// commands.
func (c *Controller) Update(dt float64, est Estimate, gyroRaw mathx.Vec3, sp Setpoint) (physics.Rotors, Diag) {
	var d Diag
	cmd := c.cascade(&c.law, &c.frame, dt, est, gyroRaw, sp, &d)
	return cmd, d
}

// cascade runs one cycle, filling d in when it is non-nil.
func (c *Loops) cascade(k *Law, f *physics.Frame, dt float64, est Estimate, gyroRaw mathx.Vec3, sp Setpoint, d *Diag) physics.Rotors {
	// --- Position loop: position error -> velocity setpoint.
	posErr := sp.Pos.Sub(est.Pos)
	velSp := posErr.Hadamard(k.gains.PosP).Add(sp.VelFF)
	// Horizontal speed limit.
	cruise := sp.CruiseSpeed
	if cruise <= 0 {
		cruise = 5
	}
	if h := velSp.NormXY(); h > cruise {
		scale := cruise / h
		velSp.X *= scale
		velSp.Y *= scale
	}
	maxClimb, maxDescend := sp.MaxClimb, sp.MaxDescend
	if maxClimb <= 0 {
		maxClimb = 3
	}
	if maxDescend <= 0 {
		maxDescend = 1.5
	}
	velSp.Z = mathx.Clamp(velSp.Z, -maxClimb, maxDescend) // NED: -Z is up

	// --- Velocity loop: velocity error -> acceleration setpoint.
	accSp := c.velPID.Update(velSp.Sub(est.Vel), dt)
	if h := accSp.NormXY(); h > k.gains.MaxAccel {
		scale := k.gains.MaxAccel / h
		accSp.X *= scale
		accSp.Y *= scale
	}

	// --- Acceleration -> thrust vector and attitude setpoint.
	// Desired specific force (thrust/mass) must provide accSp and cancel
	// gravity: f = accSp - g_NED, pointing mostly up (-Z).
	fSp := accSp.Sub(mathx.V3(0, 0, physics.Gravity))
	if fSp.Z > -1 {
		fSp.Z = -1 // never command a downward or zero thrust vector
	}
	fSp = limitTilt(fSp, k.tanMaxTilt)
	attSp := c.attitudeFromThrust(fSp, sp.Yaw)

	// Thrust magnitude: project the desired specific force on the CURRENT
	// body up-axis so tilt transients do not lose altitude. Both vectors
	// point "up" (negative NED Z), so the projection is positive.
	bodyUp := est.Att.Rotate(mathx.V3(0, 0, -1))
	thrustN := f.Params.MassKg * max(0.5, fSp.Dot(bodyUp)) // the builtin inlines; same value as math.Max here
	maxThrust := f.Mixer.MaxTotalThrustN() * 0.95
	thrustN = mathx.Clamp(thrustN, 0.05*maxThrust, maxThrust)

	// --- Attitude loop: quaternion error -> body rate setpoint.
	qErr := est.Att.Conj().Mul(attSp)
	if qErr.W < 0 { // shortest rotation
		qErr = mathx.Quat{W: -qErr.W, X: -qErr.X, Y: -qErr.Y, Z: -qErr.Z}
	}
	attErrVec := mathx.V3(qErr.X, qErr.Y, qErr.Z).Scale(2)
	rateSp := attErrVec.Hadamard(k.gains.AttP).ClampVec(k.gains.MaxRate)

	// --- Rate loop on RAW gyro: rate error -> angular accel -> torque.
	alphaSp := c.ratePID.Update(rateSp.Sub(gyroRaw), dt)
	torque := alphaSp.Hadamard(f.Params.Inertia)

	if d != nil {
		*d = Diag{VelSp: velSp, AccSp: accSp, AttSp: attSp, RateSp: rateSp, ThrustN: thrustN, TorqueNm: torque}
	}
	if c.hasAlloc {
		return c.alloc.Allocate(thrustN, torque)
	}
	return f.Mixer.Allocate(thrustN, torque)
}

// limitTilt restricts the thrust vector's angle from vertical, whose
// tangent may be at most tanMaxTilt, while preserving its vertical
// component.
func limitTilt(f mathx.Vec3, tanMaxTilt float64) mathx.Vec3 {
	up := -f.Z // positive
	if up <= 0 {
		return f
	}
	maxHoriz := up * tanMaxTilt
	if h := f.NormXY(); h > maxHoriz {
		scale := maxHoriz / h
		f.X *= scale
		f.Y *= scale
	}
	return f
}

// attitudeFromThrust builds the attitude whose body -Z axis aligns with
// the desired thrust direction and whose heading is yaw.
func (c *Loops) attitudeFromThrust(fSp mathx.Vec3, yaw float64) mathx.Quat {
	//lint:allow floatcmp cache key is the exact previous input; any change recomputes
	if yaw != c.cacheYaw || (c.cacheSinYaw == 0 && c.cacheCosYaw == 0) {
		c.cacheYaw = yaw
		c.cacheSinYaw, c.cacheCosYaw = math.Sin(yaw), math.Cos(yaw)
	}
	sy, cy := c.cacheSinYaw, c.cacheCosYaw
	zB := fSp.Neg().Normalized() // body +Z (down) opposes thrust
	xC := mathx.V3(cy, sy, 0)
	yB := zB.Cross(xC)
	if yB.Norm() < 1e-6 {
		// Degenerate: thrust nearly horizontal along heading; fall back.
		yB = mathx.V3(-sy, cy, 0)
	}
	yB = yB.Normalized()
	xB := yB.Cross(zB)
	// Columns xB, yB, zB.
	return mathx.QuatFromMatrix(mathx.Mat3{M: [3][3]float64{
		{xB.X, yB.X, zB.X},
		{xB.Y, yB.Y, zB.Y},
		{xB.Z, yB.Z, zB.Z},
	}})
}
