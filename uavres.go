// Package uavres is the public API of the drone IMU-fault resilience
// study: a from-scratch Go reproduction of "A Comprehensive Study on
// Drones Resilience in the Presence of Inertial Measurement Unit Faults"
// (DSN 2024).
//
// The library bundles a 6-DOF quadrotor simulator, PX4-style cascaded
// flight controller, error-state EKF, sensor models, the paper's
// seven-primitive IMU fault injector, the two-layer U-space bubble
// system, and a campaign runner whose report regenerates the paper's
// Tables I-IV.
//
// Quick start — fly one fault-free mission:
//
//	cfg := uavres.DefaultConfig()
//	m := uavres.ValenciaMissions()[0]
//	res, err := uavres.RunMission(cfg, m, nil)
//
// Inject a fault (the paper's "Gyro Freeze" for 10 s at T+90 s):
//
//	inj := &uavres.Injection{
//		Primitive: uavres.Freeze,
//		Target:    uavres.TargetGyro,
//		Start:     90 * time.Second,
//		Duration:  10 * time.Second,
//	}
//	res, err := uavres.RunMission(cfg, m, inj)
//
// Reproduce the paper's full 850-case campaign:
//
//	results := uavres.RunCampaign(ctx, uavres.CampaignOptions{})
//	fmt.Print(uavres.Report(results))
package uavres

import (
	"context"

	"uavres/internal/bubble"
	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/mitigation"
	"uavres/internal/paperdata"
	"uavres/internal/physics"
	"uavres/internal/sim"
	"uavres/internal/spec"
)

// Core configuration and scenario types.
type (
	// Config is the full simulation configuration; start from
	// DefaultConfig and override fields.
	Config = sim.Config
	// Mission is one U-space flight plan.
	Mission = mission.Mission
	// DroneSpec is the per-drone data entering the bubble formulas.
	DroneSpec = mission.DroneSpec
	// Result is the complete record of one simulated flight.
	Result = sim.Result
	// Outcome classifies how a mission ended.
	Outcome = sim.Outcome
	// Telemetry is the 1 Hz tracker-rate observation stream.
	Telemetry = sim.Telemetry
	// Observer receives telemetry during a run.
	Observer = sim.Observer
	// TrajPoint is one recorded trajectory sample.
	TrajPoint = sim.TrajPoint
)

// Fault-injection types (the paper's fault model).
type (
	// Injection describes one fault-injection experiment.
	Injection = faultinject.Injection
	// Primitive is one of the seven injectable value generators.
	Primitive = faultinject.Primitive
	// Target selects Accelerometer, Gyrometer, or the whole IMU.
	Target = faultinject.Target
	// FaultClass is one surveyed real-world fault (Table I).
	FaultClass = faultinject.FaultClass
	// Scope selects how many redundant IMUs a fault strikes.
	Scope = faultinject.Scope
)

// The seven fault primitives (paper Section III-A).
const (
	FixedValue = faultinject.FixedValue
	Zeros      = faultinject.Zeros
	Freeze     = faultinject.Freeze
	Random     = faultinject.Random
	MinValue   = faultinject.MinValue
	MaxValue   = faultinject.MaxValue
	Noise      = faultinject.Noise
)

// The three injection targets.
const (
	TargetAccel = faultinject.TargetAccel
	TargetGyro  = faultinject.TargetGyro
	TargetIMU   = faultinject.TargetIMU
)

// The actuator fault extension (DESIGN.md §17): rotor faults addressed
// to a single rotor via Injection.Rotor.
const (
	TargetRotor         = faultinject.TargetRotor
	LossOfEffectiveness = faultinject.LossOfEffectiveness
	StuckRotor          = faultinject.StuckRotor
	FloatRotor          = faultinject.FloatRotor
)

// Airframe selects the rotor layout (Config.Airframe.Layout). Quad-x is
// the paper's vehicle; hexa-x and octo-x fly the redundancy matrix.
type Airframe = physics.Airframe

const (
	QuadX = physics.QuadX
	HexaX = physics.HexaX
	OctoX = physics.OctoX
)

// ParseAirframe resolves an airframe name ("quad-x", "hexa-x", "octo-x",
// case-insensitive).
func ParseAirframe(name string) (Airframe, error) { return physics.ParseAirframe(name) }

// Injection scopes: the paper assumes every redundant IMU is struck
// (ScopeAllUnits); ScopePrimaryUnit is the redundancy ablation.
const (
	ScopeAllUnits    = faultinject.ScopeAllUnits
	ScopePrimaryUnit = faultinject.ScopePrimaryUnit
)

// Mission outcomes.
const (
	OutcomeCompleted = sim.OutcomeCompleted
	OutcomeCrash     = sim.OutcomeCrash
	OutcomeFailsafe  = sim.OutcomeFailsafe
	OutcomeTimeout   = sim.OutcomeTimeout
)

// Campaign types.
type (
	// Case is one planned campaign experiment.
	Case = core.Case
	// CaseResult pairs a case with its outcome.
	CaseResult = core.CaseResult
	// GroupStats is one aggregated table row.
	GroupStats = core.GroupStats
	// CampaignSpec is a declarative, serializable experiment plan:
	// missions, airframes, injection matrix, config overrides, named
	// variants, and selectors, compiled to cases by CompileSpec.
	CampaignSpec = spec.CampaignSpec
	// Selector filters compiled cases by ID (exact or glob) or by
	// injection fields.
	Selector = spec.Selector
)

// PaperSpec returns the canonical built-in spec: the paper's 850-case
// design. Compiling it reproduces PlanCampaign bit-for-bit.
func PaperSpec(seed int64) CampaignSpec { return spec.Paper(seed) }

// LoadSpec reads and validates a campaign spec from a JSON file.
// Unknown fields are rejected.
func LoadSpec(path string) (CampaignSpec, error) { return spec.Load(path) }

// CompileSpec expands a spec against a scenario (nil: Valencia) into
// executable cases and stamps each with its content hash under cfg —
// the cache key resumable campaigns compare.
func CompileSpec(s CampaignSpec, scenario []Mission, cfg Config) ([]Case, error) {
	cases, err := s.Compile(scenario)
	if err != nil {
		return nil, err
	}
	spec.AttachFingerprints(cases, cfg)
	return cases, nil
}

// MitigationConfig configures the optional software fault-mitigation
// pipeline (gyro plausibility clamp, spike-median filter, stuck-sensor
// guard) — the paper's proposed future-work direction, implemented.
type MitigationConfig = mitigation.Config

// DefaultMitigation returns the evaluated mitigation stack; assign it to
// Config.Mitigation to enable.
func DefaultMitigation() MitigationConfig { return mitigation.DefaultConfig() }

// DefaultConfig returns the reference configuration used throughout the
// reproduction (physics at 500 Hz, IMU at 250 Hz, three redundant IMUs,
// the paper's failsafe defaults).
func DefaultConfig() Config { return sim.DefaultConfig() }

// ValenciaMissions returns the paper's ten-mission urban scenario.
func ValenciaMissions() []Mission { return mission.Valencia() }

// FaultModel returns the paper's Table I fault registry.
func FaultModel() []FaultClass { return faultinject.Registry() }

// Primitives lists the seven injection primitives.
func Primitives() []Primitive { return faultinject.Primitives() }

// Targets lists the three injection targets.
func Targets() []Target { return faultinject.Targets() }

// InnerBubbleRadius computes the paper's Eq. 1 static inner bubble for a
// drone, given the U-space tracking interval in seconds.
func InnerBubbleRadius(spec DroneSpec, trackingIntervalSec float64) float64 {
	return bubble.InnerRadius(spec, trackingIntervalSec)
}

// RunMission simulates one mission. inj is nil for a gold (fault-free)
// run; obs may be nil or receive 1 Hz telemetry.
func RunMission(cfg Config, m Mission, inj *Injection, obs ...Observer) (Result, error) {
	var o Observer
	if len(obs) > 0 {
		o = obs[0]
	}
	return sim.Run(cfg, m, inj, o)
}

// CampaignOptions parameterizes RunCampaign.
type CampaignOptions struct {
	// Config overrides the per-run configuration (zero value: defaults).
	Config Config
	// Seed is the campaign base seed (default 1).
	Seed int64
	// Workers sets the pool size (default GOMAXPROCS).
	Workers int
	// Missions overrides the scenario (default: Valencia).
	Missions []Mission
	// Progress, if non-nil, receives (done, total) after each case.
	Progress func(done, total int)
}

// PlanCampaign generates the paper's 850 experiment cases.
func PlanCampaign(opts CampaignOptions) []Case {
	ms := opts.Missions
	if ms == nil {
		ms = mission.Valencia()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return core.Plan(ms, seed)
}

// RunCampaign plans and executes the full campaign, honoring ctx
// cancellation. Per-case infrastructure failures are reported in
// CaseResult.Err without aborting the sweep.
func RunCampaign(ctx context.Context, opts CampaignOptions) []CaseResult {
	return RunCases(ctx, opts, PlanCampaign(opts))
}

// RunCases executes pre-compiled cases — from PlanCampaign or
// CompileSpec — on the campaign runner, honoring ctx cancellation.
func RunCases(ctx context.Context, opts CampaignOptions, cases []Case) []CaseResult {
	runner := core.NewRunner()
	//lint:allow floatcmp zero-value detection of an unset config, never a computed value
	if opts.Config.PhysicsDt != 0 {
		runner.Config = opts.Config
	}
	runner.Workers = opts.Workers
	runner.Missions = opts.Missions
	runner.Progress = opts.Progress
	return runner.RunAll(ctx, cases)
}

// Report renders the campaign report: Tables I-IV, the paper shape
// checks on the paper grid, the secondary analysis and per-case verdicts.
func Report(results []CaseResult) string { return paperdata.Report(results) }

// GoldStats aggregates the fault-free reference runs.
func GoldStats(results []CaseResult) GroupStats { return core.GoldStats(results) }

// StatsByDuration groups faulty runs by injection duration.
func StatsByDuration(results []CaseResult) []GroupStats { return core.ByDuration(results) }

// StatsByFault groups faulty runs by the 21 injection labels.
func StatsByFault(results []CaseResult) []GroupStats { return core.ByFault(results) }

// StatsByComponent groups faulty runs by injection target.
func StatsByComponent(results []CaseResult) []GroupStats { return core.ByComponent(results) }

// StatsByAirframe groups all runs by rotor layout (the redundancy
// comparison; empty Case.Airframe reports as quad-x).
func StatsByAirframe(results []CaseResult) []GroupStats { return core.ByAirframe(results) }

// ActuatorPrimitives lists the rotor-fault primitives.
func ActuatorPrimitives() []Primitive { return faultinject.ActuatorPrimitives() }

// SaveResults and LoadResults persist campaign results as JSON files, in
// the format cmd/campaign -out streams. Every result needs a case ID.
func SaveResults(path string, results []CaseResult) error {
	w, err := core.NewResultsFileWriter(path)
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := w.Write(r); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// LoadResults reads campaign results saved by SaveResults or written by
// cmd/campaign; a truncated file is an error.
func LoadResults(path string) ([]CaseResult, error) {
	return core.LoadResultsFile(path)
}
