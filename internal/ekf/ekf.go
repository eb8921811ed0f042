// Package ekf implements the state estimator at the heart of the paper's
// study: an error-state extended Kalman filter fusing IMU, GPS, and
// barometer, in the role PX4's ECL EKF plays on real hardware. The paper's
// headline question — how well does the EKF/controller stack tolerate
// corrupted IMU data — is answered by this filter's innovation gating,
// bias estimation, and divergence behaviour.
//
// The nominal state is attitude quaternion, NED velocity, NED position,
// gyro bias, and accelerometer bias; the 15-dimensional error state covers
// small perturbations of each block.
package ekf

import (
	"math"

	"uavres/internal/mathx"
	"uavres/internal/physics"
	"uavres/internal/sensors"
)

// Config holds noise densities and gate thresholds. Defaults follow the
// consumer-MEMS class the sensors package models.
type Config struct {
	// GyroNoise is the gyro white-noise density driving attitude error
	// growth (rad/s per sqrt(s) equivalent, applied per predict step).
	GyroNoise float64
	// AccelNoise is the accel white-noise density driving velocity error.
	AccelNoise float64
	// GyroBiasWalk and AccelBiasWalk drive the bias random walks.
	GyroBiasWalk  float64
	AccelBiasWalk float64
	// GPSPosStd, GPSVelStd, BaroStd are measurement noise standard
	// deviations.
	GPSPosStd float64
	GPSVelStd float64
	BaroStd   float64
	// YawStd is the GPS-course heading-aiding noise.
	YawStd float64
	// MagYawStd is the magnetometer heading measurement noise.
	MagYawStd float64
	// GravityStd is the accelerometer gravity-direction aiding noise
	// (unitless direction components). Zero disables gravity aiding.
	GravityStd float64
	// GravityMaxDev is the quasi-static condition: gravity aiding only
	// runs when the measured specific-force magnitude is within this
	// band of 1 g (m/s^2), since maneuvering acceleration would corrupt
	// the leveling reference.
	GravityMaxDev float64
	// GateSigma is the innovation gate in standard deviations; a
	// measurement whose normalized innovation squared exceeds
	// GateSigma^2 (per axis) is rejected. Zero disables gating.
	GateSigma float64
	// CourseMinSpeed is the minimum horizontal ground speed (m/s) for
	// GPS-course heading aiding (yaw is unobservable when hovering).
	CourseMinSpeed float64
	// GPSResetSec and BaroResetSec are fusion-timeout thresholds: when an
	// aiding source has been continuously gate-rejected this long, the
	// filter hard-resets the corresponding states to the measurement and
	// inflates their covariance (PX4 EKF2's reset-on-timeout behaviour).
	// Zero disables resets.
	GPSResetSec  float64
	BaroResetSec float64
	// CovarianceDecimation is the covariance-path decimation factor k.
	// The nominal (strapdown) state advances on every Predict, while the
	// error-state covariance accumulates the compounded k-step transition
	// and applies one P ← Φ P Φᵀ + Q per k-th predict — the split PX4's
	// EKF2 makes between high-rate strapdown integration and decimated
	// covariance prediction. Values <= 1 keep the exact per-step path.
	// The accumulated transition is flushed before any consumer touches
	// the covariance (measurement updates, resets, variance queries), so
	// fusion never sees covariance older than the last flush point.
	// SetCovarianceFullRate forces the exact path while a caller-defined
	// condition holds (the simulator uses it to keep faulted flights exact
	// from launch until the fault response settles).
	CovarianceDecimation int
}

// DefaultConfig returns tuning matched to sensors.Default*Spec.
func DefaultConfig() Config {
	return Config{
		GyroNoise:            0.003,
		AccelNoise:           0.08,
		GyroBiasWalk:         5e-5,
		AccelBiasWalk:        5e-4,
		GPSPosStd:            0.5,
		GPSVelStd:            0.15,
		BaroStd:              0.25,
		YawStd:               0.08,
		MagYawStd:            0.05,
		GravityStd:           0.3,
		GravityMaxDev:        0.5,
		GateSigma:            5,
		CourseMinSpeed:       1.5,
		GPSResetSec:          5.0,
		BaroResetSec:         5.0,
		CovarianceDecimation: 4,
	}
}

// State is the EKF's nominal state estimate.
type State struct {
	// Att rotates body vectors into the world NED frame.
	Att mathx.Quat
	// Vel is the NED velocity estimate (m/s).
	Vel mathx.Vec3
	// Pos is the NED position estimate (m).
	Pos mathx.Vec3
	// GyroBias and AccelBias are the estimated sensor biases.
	GyroBias  mathx.Vec3
	AccelBias mathx.Vec3
}

// Health summarizes the filter's self-assessment, consumed by the failsafe
// module.
type Health struct {
	// GPSRejectSec and BaroRejectSec are how long each aiding source has
	// been continuously rejected by the innovation gate.
	GPSRejectSec  float64
	BaroRejectSec float64
	// LastGPSRatio and LastBaroRatio are the latest normalized innovation
	// test ratios (1.0 = exactly at the gate).
	LastGPSRatio  float64
	LastBaroRatio float64
	// LastGPSPosInnov and LastGPSVelInnov are the latest raw GPS
	// innovations (diagnostics).
	LastGPSPosInnov mathx.Vec3
	LastGPSVelInnov mathx.Vec3
	// GPSFusions and BaroFusions count fusion attempts; GPSGateRejects and
	// BaroGateRejects count attempts the innovation gate rejected (for GPS,
	// an attempt where any axis failed its gate). Cumulative over the
	// flight — the observability layer exports them as counters, and being
	// plain value fields they ride the filter through checkpoint forks.
	GPSFusions      int64
	BaroFusions     int64
	GPSGateRejects  int64
	BaroGateRejects int64
	// MaxGPSRatio and MaxBaroRatio are the worst test ratios seen over the
	// flight (running maxima of Last*Ratio).
	MaxGPSRatio  float64
	MaxBaroRatio float64
	// Resets counts hard reset-on-timeout events (velocity/position
	// snapped back to a rejected-but-persistent aiding source).
	Resets int
	// Diverged is set when the nominal state left physical bounds; it
	// latches until Reset.
	Diverged bool
}

// Filter is the error-state EKF. It is a plain value, so copying a Filter
// copies its complete state. Not safe for concurrent use; each vehicle
// owns one.
type Filter struct {
	cfg Config

	st State
	p  mat // error-state covariance

	health   Health
	lastGPST float64
	lastBarT float64
	inited   bool

	// Decimated-covariance state (all value fields, so a copy of the
	// filter captures the mid-window phase and forks resume
	// bit-identically).
	covFull bool       // full-rate forced (fault window + settle)
	pending int        // predicts accumulated since the last flush
	acc     transition // compounded transition over the pending steps
}

// New returns a filter initialized at rest at the origin with conservative
// initial uncertainty.
func New(cfg Config) Filter {
	f := Filter{cfg: cfg}
	f.Reset(State{Att: mathx.QuatIdentity()})
	return f
}

// Reset re-initializes the nominal state and covariance.
func (f *Filter) Reset(st State) {
	f.st = st
	//lint:allow floatcmp exact zero-norm only occurs for the zero-value quaternion
	if f.st.Att.Norm() == 0 {
		f.st.Att = mathx.QuatIdentity()
	}
	f.p = mat{}
	for i := 0; i < 3; i++ {
		f.p[idxTheta+i][idxTheta+i] = 0.02
		f.p[idxVel+i][idxVel+i] = 0.5
		f.p[idxPos+i][idxPos+i] = 1.0
		f.p[idxBg+i][idxBg+i] = 1e-4
		f.p[idxBa+i][idxBa+i] = 1e-2
	}
	f.health = Health{}
	f.inited = true
	f.pending = 0
	f.acc.reset()
}

// State returns the current nominal estimate.
func (f *Filter) State() State { return f.st }

// Health returns the filter's self-assessment.
func (f *Filter) Health() Health { return f.health }

// Covariance returns the variance of the error-state entry at index i
// (0..14); used by tests and diagnostics. Any pending decimated
// propagation is flushed first so the value is current.
func (f *Filter) Covariance(i int) float64 {
	f.flushCovariance()
	return f.p[i][i]
}

// AttitudeStd returns the 1-sigma attitude uncertainty (rad), the largest
// of the three attitude error variances (flushing any pending decimated
// propagation first).
func (f *Filter) AttitudeStd() float64 {
	f.flushCovariance()
	v := math.Max(f.p[0][0], math.Max(f.p[1][1], f.p[2][2]))
	return math.Sqrt(v)
}

// SetCovarianceFullRate forces (true) or releases (false) full-rate
// covariance propagation regardless of CovarianceDecimation. The vehicle
// drives this from the fault-injection schedule: during an active
// injection window, and for a settle window after it, fault-response
// dynamics keep the exact per-step covariance path, so decimation only
// ever applies to benign flight. Entering full rate flushes any
// accumulated transition so no covariance time is lost.
func (f *Filter) SetCovarianceFullRate(full bool) {
	if full && !f.covFull {
		f.flushCovariance()
	}
	f.covFull = full
}

// flushCovariance applies the accumulated window transition and the
// process noise scaled over the accumulated horizon, then resets the
// window. It is a no-op when nothing is pending, so every covariance
// consumer calls it unconditionally. The integrated-noise approximation
// (Q·Σdt added once instead of interleaved per step) is the same one
// decimated flight estimators make; its error is O(k·dt) relative and is
// bounded by TestDecimationDriftBounded.
func (f *Filter) flushCovariance() {
	if f.pending == 0 {
		return
	}
	f.p.applyTransition(&f.acc)
	var q [dim]float64
	gn := f.cfg.GyroNoise * f.cfg.GyroNoise * f.acc.s
	an := f.cfg.AccelNoise * f.cfg.AccelNoise * f.acc.s
	gw := f.cfg.GyroBiasWalk * f.cfg.GyroBiasWalk * f.acc.s
	aw := f.cfg.AccelBiasWalk * f.cfg.AccelBiasWalk * f.acc.s
	for i := 0; i < 3; i++ {
		q[idxTheta+i] = gn
		q[idxVel+i] = an
		q[idxBg+i] = gw
		q[idxBa+i] = aw
	}
	f.p.addDiag(q)
	f.p.clampDiag(1e-12, 1e8)
	f.acc.reset()
	f.pending = 0
}

// NotifySensorSwitch tells the filter its IMU source just changed
// (redundancy management switched units). The moments before a switch
// were by definition fed by a distrusted sensor, so the attitude and
// velocity uncertainty are reopened: the healthy references (gravity
// direction, magnetometer, GPS) then repair the state within a second
// instead of tens of seconds.
func (f *Filter) NotifySensorSwitch() {
	f.flushCovariance()
	for i := 0; i < 3; i++ {
		if f.p[idxTheta+i][idxTheta+i] < 0.25 {
			f.p[idxTheta+i][idxTheta+i] = 0.25 // (0.5 rad)^2
		}
		if f.p[idxVel+i][idxVel+i] < 4 {
			f.p[idxVel+i][idxVel+i] = 4
		}
	}
}

// RealignLevel re-derives roll and pitch from a trusted accelerometer
// sample (quasi-static leveling), keeping the current yaw — the
// coarse re-alignment a flight EKF performs after switching to a new
// inertial source. It is skipped when the sample is clearly dynamic
// (specific-force magnitude far from 1 g).
func (f *Filter) RealignLevel(accelBody mathx.Vec3) {
	norm := accelBody.Norm()
	if norm < physics.Gravity-3 || norm > physics.Gravity+3 {
		return
	}
	// Measured body-frame down direction: the specific force at rest is
	// the gravity reaction (pointing body-up), so down is its opposite.
	downBody := accelBody.Scale(-1 / norm)
	_, _, yaw := f.st.Att.Euler()
	f.st.Att = attitudeFromDownAndYaw(downBody, yaw)
}

// attitudeFromDownAndYaw builds the body->world rotation whose body-frame
// down direction maps onto world down and whose heading is yaw.
func attitudeFromDownAndYaw(downBody mathx.Vec3, yaw float64) mathx.Quat {
	zWorld := mathx.V3(0, 0, 1)
	axis := downBody.Cross(zWorld)
	angle := math.Acos(mathx.Clamp(downBody.Dot(zWorld), -1, 1))
	tilt := mathx.QuatFromAxisAngle(axis, angle) // rotates downBody onto zWorld
	r, p, _ := tilt.Euler()
	return mathx.QuatFromEuler(r, p, yaw)
}

// Predict advances the filter with one IMU sample over dt seconds. The
// sample is the (possibly fault-corrupted) sensor output — the filter has
// no access to ground truth.
func (f *Filter) Predict(s sensors.IMUSample, dt float64) {
	if dt <= 0 || f.health.Diverged {
		return
	}
	omega := s.Gyro.Sub(f.st.GyroBias)
	accelBody := s.Accel.Sub(f.st.AccelBias)

	rot := f.st.Att.RotationMatrix()
	accelWorld := rot.MulVec(accelBody).Add(mathx.V3(0, 0, physics.Gravity))

	// Nominal propagation.
	f.st.Att = f.st.Att.Integrate(omega, dt)
	f.st.Vel = f.st.Vel.Add(accelWorld.Scale(dt))
	f.st.Pos = f.st.Pos.Add(f.st.Vel.Scale(dt))

	// Divergence latch: physical bounds for a small UAV mission area.
	if !f.st.Vel.IsFinite() || !f.st.Pos.IsFinite() ||
		f.st.Vel.Norm() > 1e4 || f.st.Pos.Norm() > 1e7 {
		f.health.Diverged = true
		return
	}

	// Error-state transition (first-order discretization):
	//   dθ' = (I - [ω]x dt) dθ          - I dt dbg
	//   dv' = -R [a]x dt dθ + dv        - R dt dba
	//   dp' = dv dt + dp
	// F's block structure is fixed — identity blocks plus the three dense
	// 3x3 couplings A/B/C and two scaled-identity couplings — so the
	// covariance propagation P ← F P Fᵀ is hand-unrolled over the blocks
	// (see mat.propagate) instead of two generic 15x15 multiplies.
	wSkew := mathx.Skew(omega)
	aSkew := mathx.Skew(accelBody)
	raSkew := rot.Mul(aSkew)
	var a, b, c [3][3]float64 // A = I - [ω]x dt, B = -R [a]x dt, C = -R dt
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a[i][j] = -wSkew.M[i][j] * dt
			b[i][j] = -raSkew.M[i][j] * dt
			c[i][j] = -rot.M[i][j] * dt
		}
		a[i][i] += 1
	}

	// Decimated path: fold this step's F into the window transition and
	// flush every k-th step. Covariance consumers flush earlier on demand.
	if k := f.cfg.CovarianceDecimation; k > 1 && !f.covFull {
		f.acc.compose(&a, &b, &c, dt)
		f.pending++
		if f.pending >= k {
			f.flushCovariance()
		}
		return
	}

	// Full-rate path (k <= 1, or forced during fault windows): the exact
	// per-step propagation. The pending check only matters if the mode
	// changed without a flush (defensive; SetCovarianceFullRate flushes).
	f.flushCovariance()
	f.p.propagate(&a, &b, &c, dt)

	var q [dim]float64
	gn := f.cfg.GyroNoise * f.cfg.GyroNoise * dt
	an := f.cfg.AccelNoise * f.cfg.AccelNoise * dt
	gw := f.cfg.GyroBiasWalk * f.cfg.GyroBiasWalk * dt
	aw := f.cfg.AccelBiasWalk * f.cfg.AccelBiasWalk * dt
	for i := 0; i < 3; i++ {
		q[idxTheta+i] = gn
		q[idxVel+i] = an
		q[idxBg+i] = gw
		q[idxBa+i] = aw
	}
	f.p.addDiag(q)
	f.p.clampDiag(1e-12, 1e8)
}
