// Package failsafe implements the flight controller's protective layer as
// the paper describes it (Section IV-C): sensor-health monitoring, an
// isolation stage that rotates through redundant IMUs before giving up
// (taking a minimum of 1900 ms), and a failsafe state machine whose
// activation — like PX4's failure detector — terminates the flight.
//
// Detection asymmetry, quoted from the paper, is modelled directly:
//
//   - Gyrometer: an explicit rate threshold, 60 deg/s by default
//     (configurable), trips the detector.
//   - Accelerometer: no explicit threshold exists; detection relies on
//     vehicle capability bounds and on the EKF's innovation health.
//   - IMU (both): either path can trip the detector.
package failsafe

import (
	"uavres/internal/ekf"
	"uavres/internal/mathx"
	"uavres/internal/sensors"
)

// Config holds detection thresholds and timing.
type Config struct {
	// GyroRateThreshold is the sustained body-rate magnitude that marks
	// the gyro unhealthy (rad/s). The paper's default is 60 deg/s.
	GyroRateThreshold float64
	// GyroPersistSec is how long the rate must stay above threshold.
	GyroPersistSec float64
	// AccelPlausible is the specific-force magnitude beyond the vehicle's
	// physical capability (m/s^2); sustained readings above it mark the
	// accelerometer unhealthy.
	AccelPlausible float64
	// AccelPersistSec is how long accel implausibility must persist.
	AccelPersistSec float64
	// GPSRejectSecLimit and BaroRejectSecLimit are how long EKF aiding
	// rejection may last before the inertial solution is distrusted.
	GPSRejectSecLimit  float64
	BaroRejectSecLimit float64
	// VelEnvelopeFactor flags the estimated horizontal speed exceeding
	// this multiple of the vehicle's specified top speed — the paper's
	// accelerometer detection path, which "relies on factors such as
	// vehicle specifications and airspeed" instead of a threshold.
	// Zero disables the check.
	VelEnvelopeFactor float64
	// VelEnvelopePersistSec is how long the envelope violation must hold.
	VelEnvelopePersistSec float64
	// IsolationDelaySec is the minimum time spent cycling redundant
	// sensors before failsafe may activate (paper: >= 1900 ms).
	IsolationDelaySec float64
	// SwitchIntervalSec is the evaluation time per redundant sensor.
	SwitchIntervalSec float64
	// CrashImpactSpeed is the touchdown speed separating a landing from a
	// crash (m/s).
	CrashImpactSpeed float64
	// CrashTiltRad is the ground-contact tilt beyond which the vehicle is
	// considered crashed (flipped over).
	CrashTiltRad float64
}

// DefaultConfig mirrors the paper's quoted PX4 defaults.
func DefaultConfig() Config {
	return Config{
		GyroRateThreshold:     mathx.Deg2Rad(60),
		GyroPersistSec:        0.5,
		AccelPlausible:        130, // near full scale: only saturation-level output trips it
		AccelPersistSec:       1.0,
		GPSRejectSecLimit:     6.0,
		BaroRejectSecLimit:    8.0,
		VelEnvelopeFactor:     1.8,
		VelEnvelopePersistSec: 1.0,
		IsolationDelaySec:     1.9,
		SwitchIntervalSec:     0.4,
		CrashImpactSpeed:      2.5,
		CrashTiltRad:          mathx.Deg2Rad(60),
	}
}

// Phase is the failsafe state machine's state.
type Phase int

// Failsafe phases, in escalation order.
const (
	// PhaseNominal means no anomaly is being tracked.
	PhaseNominal Phase = iota + 1
	// PhaseIsolating means an anomaly is present and redundant sensors
	// are being rotated in search of a healthy unit.
	PhaseIsolating
	// PhaseActive means failsafe has engaged: the flight is terminated.
	PhaseActive
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseNominal:
		return "nominal"
	case PhaseIsolating:
		return "isolating"
	case PhaseActive:
		return "failsafe"
	default:
		return "unknown"
	}
}

// Cause identifies which detection path tripped.
type Cause int

// Detection causes.
const (
	CauseNone Cause = iota
	CauseGyroRate
	CauseAccelImplausible
	CauseEKFAiding
	CauseEKFDiverged
	CauseVelEnvelope
	CauseStuckSensor
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseGyroRate:
		return "gyro-rate"
	case CauseAccelImplausible:
		return "accel-implausible"
	case CauseEKFAiding:
		return "ekf-aiding"
	case CauseEKFDiverged:
		return "ekf-diverged"
	case CauseVelEnvelope:
		return "velocity-envelope"
	case CauseStuckSensor:
		return "stuck-sensor"
	default:
		return "unknown"
	}
}

// Observation is one monitor input: the corrupted-sensor view plus the
// navigation solution's plausibility context.
type Observation struct {
	// T is the sim time (s).
	T float64
	// IMU is the latest (possibly corrupted) primary-IMU sample.
	IMU sensors.IMUSample
	// Health is the EKF's self-assessment.
	Health ekf.Health
	// EstVelHorizMS is the EKF's horizontal ground-speed estimate.
	EstVelHorizMS float64
	// MaxSpeedMS is the vehicle's specified top speed (capability bound).
	MaxSpeedMS float64
	// StuckSensor is set by the mitigation layer's stuck-output guard
	// (identical consecutive samples — the Freeze/Zeros signature).
	StuckSensor bool
}

// Monitor is the failsafe state machine; its thresholds are a Config
// passed to every Update. Not safe for concurrent use.
type Monitor struct {
	phase Phase
	cause Cause

	gyroHighSince  float64
	accelHighSince float64
	velHighSince   float64
	gyroHigh       bool
	accelHigh      bool
	velHigh        bool

	isolationStart float64
	lastSwitch     float64
	switches       int

	activatedAt float64
}

// NewMonitor returns a monitor in the nominal phase.
func NewMonitor() Monitor { return Monitor{phase: PhaseNominal} }

// Phase returns the current state-machine phase.
func (m *Monitor) Phase() Phase { return m.phase }

// Cause returns the detection path that initiated isolation/failsafe.
func (m *Monitor) Cause() Cause { return m.cause }

// ActivatedAt returns the sim time failsafe engaged (0 if it has not).
func (m *Monitor) ActivatedAt() float64 { return m.activatedAt }

// Switches returns how many redundant-sensor switches were performed.
func (m *Monitor) Switches() int { return m.switches }

// Update advances the monitor under cfg with the latest observation. imus
// is the redundant set the isolation stage rotates; a nil set disables
// switching (single-IMU vehicle). Returns the current phase.
func (m *Monitor) Update(cfg *Config, obs Observation, imus *sensors.RedundantIMUs) Phase {
	t := obs.T
	if m.phase == PhaseActive {
		return m.phase
	}

	anomaly := m.detect(cfg, obs)

	switch m.phase {
	case PhaseNominal:
		if anomaly != CauseNone {
			m.phase = PhaseIsolating
			m.cause = anomaly
			m.isolationStart = t
			m.lastSwitch = t
			m.switches = 0
		}
	case PhaseIsolating:
		if anomaly == CauseNone {
			// Sensor recovered (fault window ended or switch found a
			// healthy unit): stand down.
			m.phase = PhaseNominal
			m.cause = CauseNone
			return m.phase
		}
		m.cause = anomaly
		// Rotate redundant sensors at the evaluation cadence. The paper
		// assumes the fault affects all redundant sensors, so rotation
		// never actually helps — but it must be attempted, and it is what
		// makes failsafe take >= 1900 ms.
		if imus != nil && t-m.lastSwitch >= cfg.SwitchIntervalSec && !imus.Exhausted(m.switches) {
			imus.SwitchPrimary()
			m.switches++
			m.lastSwitch = t
		}
		exhausted := imus == nil || imus.Exhausted(m.switches)
		if t-m.isolationStart >= cfg.IsolationDelaySec && exhausted {
			m.phase = PhaseActive
			m.activatedAt = t
		}
	}
	return m.phase
}

// detect evaluates all detection paths and returns the first tripped
// cause, or CauseNone.
func (m *Monitor) detect(cfg *Config, obs Observation) Cause {
	t, imu, health := obs.T, obs.IMU, obs.Health
	if health.Diverged {
		return CauseEKFDiverged
	}
	if obs.StuckSensor {
		// The guard has already applied its own persistence window.
		return CauseStuckSensor
	}

	// Gyro path: explicit threshold with persistence.
	if imu.Gyro.Norm() > cfg.GyroRateThreshold {
		if !m.gyroHigh {
			m.gyroHigh = true
			m.gyroHighSince = t
		}
	} else {
		m.gyroHigh = false
	}
	if m.gyroHigh && t-m.gyroHighSince >= cfg.GyroPersistSec {
		return CauseGyroRate
	}

	// Accel path: no explicit threshold — plausibility vs. the vehicle's
	// physical capability, with persistence.
	if imu.Accel.Norm() > cfg.AccelPlausible {
		if !m.accelHigh {
			m.accelHigh = true
			m.accelHighSince = t
		}
	} else {
		m.accelHigh = false
	}
	if m.accelHigh && t-m.accelHighSince >= cfg.AccelPersistSec {
		return CauseAccelImplausible
	}

	// Velocity-envelope path: the navigation solution claims a speed the
	// airframe cannot physically reach ("vehicle specifications and
	// airspeed" — the paper's accelerometer detection factors).
	if cfg.VelEnvelopeFactor > 0 && obs.MaxSpeedMS > 0 {
		if obs.EstVelHorizMS > cfg.VelEnvelopeFactor*obs.MaxSpeedMS {
			if !m.velHigh {
				m.velHigh = true
				m.velHighSince = t
			}
		} else {
			m.velHigh = false
		}
		if m.velHigh && t-m.velHighSince >= cfg.VelEnvelopePersistSec {
			return CauseVelEnvelope
		}
	}

	// EKF aiding path: inertial solution rejected by references too long.
	if cfg.GPSRejectSecLimit > 0 && health.GPSRejectSec > cfg.GPSRejectSecLimit {
		return CauseEKFAiding
	}
	if cfg.BaroRejectSecLimit > 0 && health.BaroRejectSec > cfg.BaroRejectSecLimit {
		return CauseEKFAiding
	}
	return CauseNone
}

// CrashDetector classifies ground impacts from ground-truth physics state,
// playing the role of the simulation platform's collision monitoring. The
// zero value is a detector that has latched nothing; its thresholds are a
// Config passed to every Update.
type CrashDetector struct {
	crashed bool
	at      float64
	reason  string
}

// Crashed reports whether a crash has been latched.
func (c *CrashDetector) Crashed() bool { return c.crashed }

// At returns the crash time (0 if none).
func (c *CrashDetector) At() float64 { return c.at }

// Reason returns a human-readable crash classification.
func (c *CrashDetector) Reason() string { return c.reason }

// Update feeds ground-truth observations under cfg: whether the vehicle
// is on the ground, its touchdown speed, and its tilt. Once latched, a
// crash is permanent.
func (c *CrashDetector) Update(cfg *Config, t float64, onGround bool, touchdownSpeed float64, tilt float64) {
	if c.crashed || !onGround {
		return
	}
	if touchdownSpeed > cfg.CrashImpactSpeed {
		c.crashed = true
		c.at = t
		c.reason = "hard impact"
		return
	}
	if tilt > cfg.CrashTiltRad {
		c.crashed = true
		c.at = t
		c.reason = "flip-over"
	}
}
