package core

import (
	"fmt"

	"uavres/internal/mathx"
	"uavres/internal/sim"
)

// Overrides are the campaign-addressable simulation-config knobs: a
// spec's overrides block, and each of its variants. Pointers distinguish
// "leave the default" (null) from an explicit value.
type Overrides struct {
	// GyroThresholdDegS overrides the failsafe gyro-rate threshold
	// (paper default 60 deg/s).
	GyroThresholdDegS *float64 `json:"gyro_threshold_deg_s,omitempty"`
	// RiskR overrides the outer-bubble risk factor (paper: 1).
	RiskR *float64 `json:"risk_r,omitempty"`
	// CovDecimation overrides the EKF covariance decimation factor.
	CovDecimation *int `json:"cov_decimation,omitempty"`
	// CovSettleSec overrides the post-fault full-rate settle window.
	CovSettleSec *float64 `json:"cov_settle_sec,omitempty"`
	// RedundancyVoting toggles cross-IMU consistency voting.
	RedundancyVoting *bool `json:"redundancy_voting,omitempty"`
	// RNGPolicy selects the environment normal-deviate sampler: "polar"
	// (default, bit-compatible with recorded campaigns) or "ziggurat"
	// (see mathx.ParseNormPolicy).
	RNGPolicy *string `json:"rng_policy,omitempty"`
	// RotorReconfig, when true, arms the per-rotor FDI monitor and the
	// reconfiguring control allocator (mitigation.RotorDefaults) — the
	// mitigation actuator faults need. Omitted or false leaves the legacy
	// sensor-only pipeline (and its fingerprints) untouched.
	RotorReconfig *bool `json:"rotor_reconfig,omitempty"`
}

// Validate rejects override values no config can take.
func (o Overrides) Validate() error {
	if o.CovDecimation != nil && *o.CovDecimation < 1 {
		return fmt.Errorf("cov_decimation %d < 1", *o.CovDecimation)
	}
	if o.RNGPolicy != nil {
		if _, err := mathx.ParseNormPolicy(*o.RNGPolicy); err != nil {
			return err
		}
	}
	return nil
}

// Apply folds the overrides into a simulation config.
func (o Overrides) Apply(cfg *sim.Config) {
	if o.RNGPolicy != nil {
		cfg.RNGPolicy = *o.RNGPolicy
	}
	if o.GyroThresholdDegS != nil {
		cfg.Failsafe.GyroRateThreshold = mathx.Deg2Rad(*o.GyroThresholdDegS)
	}
	if o.RiskR != nil {
		cfg.RiskR = *o.RiskR
	}
	if o.CovDecimation != nil {
		cfg.EKF.CovarianceDecimation = *o.CovDecimation
	}
	if o.CovSettleSec != nil {
		cfg.CovSettleSec = *o.CovSettleSec
	}
	if o.RedundancyVoting != nil {
		cfg.RedundancyVoting = *o.RedundancyVoting
	}
	if o.RotorReconfig != nil && *o.RotorReconfig {
		cfg.Mitigation = cfg.Mitigation.RotorDefaults()
	}
}

// Variant is one named configuration a case flies under: overrides
// applied on top of the runner's config (which already carries the
// spec-wide overrides). A spec's variants axis stamps each case with its
// variant, so the case is self-describing: its fingerprint hashes the
// overrides, and the runner keeps every variant in its own prefix chains
// and batches. Names are unique within a campaign.
type Variant struct {
	Name      string    `json:"name"`
	Overrides Overrides `json:"overrides"`
}

// variantName is the case's variant name, "" for the unnamed default.
func (c Case) variantName() string {
	if c.Variant == nil {
		return ""
	}
	return c.Variant.Name
}

func (cr CaseResult) variantName() string { return cr.Case.variantName() }
