// Package sim assembles the full simulated vehicle — physics, sensors,
// fault injector, EKF, cascaded controller, failsafe monitor, and U-space
// bubble tracker — and runs one mission to an outcome. It is the
// counterpart of the paper's Gazebo+PX4 vehicle under the fault-injection
// platform.
package sim

import (
	"fmt"

	"uavres/internal/control"
	"uavres/internal/ekf"
	"uavres/internal/failsafe"
	"uavres/internal/mathx"
	"uavres/internal/mitigation"
	"uavres/internal/physics"
	"uavres/internal/sensors"
)

// Config collects every knob of a simulated flight. Zero values are filled
// in by Defaults; construct via DefaultConfig and override fields.
type Config struct {
	// PhysicsDt is the integration step (s).
	PhysicsDt float64
	// MaxSimTime aborts runs that neither complete nor fail (s).
	MaxSimTime float64
	// Seed drives environment randomness (wind, sensor noise). The fault
	// injector has its own seed inside the Injection.
	Seed int64
	// RNGPolicy names the normal-deviate sampler: "" or "polar", the only
	// one (mathx.ParseNormPolicy). It stays because the campaign benchmark
	// (benchsuite/) compiles against it, and because it is part of every
	// case fingerprint's config bytes.
	RNGPolicy string

	// WindMeanMS and WindGustStd parameterize the wind model; the mean
	// direction is drawn from the seed.
	WindMeanMS  float64
	WindGustStd float64

	// IMUCount is the number of redundant IMUs (PX4-style: 3; at most
	// sensors.MaxIMUs).
	IMUCount int
	// RedundancyVoting enables per-sample cross-IMU consistency checks:
	// a primary unit whose output diverges from the median of all units
	// is switched out within a few samples (PX4-style redundancy
	// management). Under the paper's all-units fault assumption every
	// unit agrees and voting never fires; it matters for the
	// ScopePrimaryUnit ablation.
	RedundancyVoting bool
	// VoteAccelTol and VoteGyroTol are the voter's per-axis tolerances
	// (m/s^2, rad/s). Zero values fall back to defaults.
	VoteAccelTol float64
	VoteGyroTol  float64
	// VotePersistSamples is how many consecutive outlier samples trigger
	// a switch (zero: default 5, i.e. 20 ms at 250 Hz).
	VotePersistSamples int

	// RiskR is the outer-bubble risk factor (paper: 1).
	RiskR float64
	// TrackingInterval is the U-space tracker cadence (s).
	TrackingInterval float64

	// ShieldRateLoop, when true, feeds the body-rate loop an uncorrupted
	// rate signal (ground truth standing in for a hypothetical
	// fault-filtered source) while the EKF still sees the faulty stream.
	// ShieldEKF is the complement: the EKF receives clean samples while
	// the rate loop consumes the corrupted gyro. Together they form the
	// factorial ablation decomposing WHERE gyro-fault damage enters
	// (DESIGN.md: ablation benches).
	ShieldRateLoop bool
	ShieldEKF      bool

	// RecordTrajectory enables trajectory capture at 1 Hz (figures).
	RecordTrajectory bool

	// CovSettleSec keeps the EKF covariance on the exact per-step path for
	// this long after a fault window closes. On a faulted flight the exact
	// path covers everything from launch through the fault window plus
	// this margin — a pre-fault covariance difference, however small,
	// would be amplified by the fault's chaotic dynamics and change
	// verdicts — so decimated propagation runs only on the post-settle
	// tail (and on the whole of fault-free flights). Only meaningful when
	// EKF.CovarianceDecimation > 1. Zero means no settle margin.
	CovSettleSec float64

	// Airframe, Gains, EKF, and Failsafe configure the subsystems.
	Airframe physics.Params
	Gains    control.Gains
	EKF      ekf.Config
	Failsafe failsafe.Config
	// Mitigation configures the optional software fault-mitigation
	// pipeline on the IMU stream (zero value: disabled, the paper's
	// baseline).
	Mitigation mitigation.Config

	// Sensor specs.
	IMUSpec  sensors.IMUSpec
	GPSSpec  sensors.GPSSpec
	BaroSpec sensors.BaroSpec
	MagSpec  sensors.MagSpec
}

// DefaultConfig returns the campaign's reference configuration.
func DefaultConfig() Config {
	return Config{
		PhysicsDt:        0.002,
		MaxSimTime:       900,
		Seed:             1,
		WindMeanMS:       0.8,
		WindGustStd:      0.25,
		IMUCount:         3,
		RedundancyVoting: true,
		VoteAccelTol:     3.0,
		VoteGyroTol:      0.3,
		RiskR:            1,
		TrackingInterval: 1,
		CovSettleSec:     10,
		Airframe:         physics.DefaultParams(),
		Gains:            control.DefaultGains(),
		EKF:              ekf.DefaultConfig(),
		Failsafe:         failsafe.DefaultConfig(),
		IMUSpec:          sensors.DefaultIMUSpec(),
		GPSSpec:          sensors.DefaultGPSSpec(),
		BaroSpec:         sensors.DefaultBaroSpec(),
		MagSpec:          sensors.DefaultMagSpec(),
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.PhysicsDt <= 0 || c.PhysicsDt > 0.01 {
		return fmt.Errorf("sim: physics dt %v outside (0, 0.01]", c.PhysicsDt)
	}
	if c.MaxSimTime <= 0 {
		return fmt.Errorf("sim: non-positive max sim time %v", c.MaxSimTime)
	}
	if c.IMUCount < 1 || c.IMUCount > sensors.MaxIMUs {
		return fmt.Errorf("sim: IMU count %d outside [1, %d]", c.IMUCount, sensors.MaxIMUs)
	}
	if c.CovSettleSec < 0 {
		return fmt.Errorf("sim: negative covariance settle window %v", c.CovSettleSec)
	}
	if _, err := mathx.ParseNormPolicy(c.RNGPolicy); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Airframe.Validate(); err != nil {
		return err
	}
	if err := c.Mitigation.Validate(); err != nil {
		return err
	}
	return c.IMUSpec.Validate()
}

// windFromSeed derives a deterministic mean-wind vector from the seed.
func windFromSeed(c Config, dirUnit mathx.Vec3) mathx.Vec3 {
	return dirUnit.Scale(c.WindMeanMS)
}
