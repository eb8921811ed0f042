package sim

import (
	"math"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/geo"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/mitigation"
	"uavres/internal/sensors"
)

// shortMission is a fast-running route for unit-level checks.
func shortMission() mission.Mission {
	return mission.Mission{
		ID: 99, Name: "short test hop", CruiseSpeedMS: 3.33, AltitudeM: 15,
		Drone:     mission.DroneSpec{Name: "t", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 5},
		Start:     mathx.V3(0, 0, 0),
		Waypoints: []mathx.Vec3{{X: 0, Y: 100, Z: -15}},
	}
}

func TestShortGoldRunCompletes(t *testing.T) {
	res, err := Run(DefaultConfig(), shortMission(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("outcome = %v (%s%s)", res.Outcome, res.FailsafeCause, res.CrashReason)
	}
	if res.InnerViolations != 0 || res.OuterViolations != 0 {
		t.Errorf("violations inner=%d outer=%d", res.InnerViolations, res.OuterViolations)
	}
	if res.FlightDurationSec < 40 || res.FlightDurationSec > 90 {
		t.Errorf("duration = %v, want ~55 s", res.FlightDurationSec)
	}
	// EKF-estimated distance ≈ 100 m route + 2x15 m vertical.
	if res.DistanceKm < 0.11 || res.DistanceKm > 0.16 {
		t.Errorf("distance = %v km, want ~0.13", res.DistanceKm)
	}
	if res.WaypointsReached != 1 {
		t.Errorf("waypoints reached = %d", res.WaypointsReached)
	}
}

func TestRunValidatesInputs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhysicsDt = -1
	if _, err := Run(cfg, shortMission(), nil, nil); err == nil {
		t.Error("invalid config accepted")
	}
	bad := shortMission()
	bad.Waypoints = nil
	if _, err := Run(DefaultConfig(), bad, nil, nil); err == nil {
		t.Error("invalid mission accepted")
	}
	badInj := &faultinject.Injection{Primitive: 99, Target: faultinject.TargetIMU, Duration: time.Second}
	if _, err := Run(DefaultConfig(), shortMission(), badInj, nil); err == nil {
		t.Error("invalid injection accepted")
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 33
	inj := &faultinject.Injection{
		Primitive: faultinject.Noise, Target: faultinject.TargetAccel,
		Start: 20 * time.Second, Duration: 5 * time.Second, Seed: 7,
	}
	a, err := Run(cfg, shortMission(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, shortMission(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome || a.FlightDurationSec != b.FlightDurationSec ||
		a.InnerViolations != b.InnerViolations || a.DistanceKm != b.DistanceKm {
		t.Errorf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestObserverReceivesTelemetry(t *testing.T) {
	var n int
	var last Telemetry
	res, err := Run(DefaultConfig(), shortMission(), nil, func(tel Telemetry) {
		n++
		last = tel
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~1 Hz over the flight duration.
	want := int(res.FlightDurationSec)
	if n < want-3 || n > want+3 {
		t.Errorf("telemetry samples = %d, want ~%d", n, want)
	}
	if last.MissionID != 99 || last.T == 0 {
		t.Errorf("last telemetry = %+v", last)
	}
}

func TestTrajectoryRecording(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	res, err := Run(cfg, shortMission(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) < 40 {
		t.Fatalf("trajectory points = %d, want ~55", len(res.Trajectory))
	}
	// Trajectory must show the climb to 15 m.
	var maxAlt float64
	for _, p := range res.Trajectory {
		maxAlt = math.Max(maxAlt, -p.TruePos.Z)
	}
	if maxAlt < 13 {
		t.Errorf("max altitude in trajectory = %v, want ~15", maxAlt)
	}
}

// TestGyroFaultCrashesOrFailsafes verifies the paper's central asymmetry:
// a full-scale gyro fault destroys the flight within seconds even at the
// shortest (2 s) injection, via the raw-gyro rate loop.
func TestGyroFaultFailsEvenAtTwoSeconds(t *testing.T) {
	inj := &faultinject.Injection{
		Primitive: faultinject.MinValue, Target: faultinject.TargetGyro,
		Start: 20 * time.Second, Duration: 2 * time.Second, Seed: 1,
	}
	res, err := Run(DefaultConfig(), shortMission(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == OutcomeCompleted {
		t.Fatal("Gyro Min completed; the paper reports 0% completion")
	}
	if res.FlightDurationSec > 40 {
		t.Errorf("failure took %v s; expected within seconds of onset", res.FlightDurationSec)
	}
}

// TestAccelNoiseSurvivable verifies the other side of the asymmetry:
// accelerometer noise corrupts navigation but the EKF + controller ride it
// out (paper: 60% completion for Acc Noise).
func TestAccelNoiseSurvivable(t *testing.T) {
	inj := &faultinject.Injection{
		Primitive: faultinject.Noise, Target: faultinject.TargetAccel,
		Start: 20 * time.Second, Duration: 10 * time.Second, Seed: 1,
	}
	res, err := Run(DefaultConfig(), shortMission(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCompleted {
		t.Errorf("Acc Noise outcome = %v (%s%s)", res.Outcome, res.FailsafeCause, res.CrashReason)
	}
}

// TestIMURandomFailsFast: random values on both sensors crash quickly and
// violently (paper Fig. 5).
func TestIMURandomFailsFast(t *testing.T) {
	inj := &faultinject.Injection{
		Primitive: faultinject.Random, Target: faultinject.TargetIMU,
		Start: 20 * time.Second, Duration: 30 * time.Second, Seed: 1,
	}
	res, err := Run(DefaultConfig(), shortMission(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == OutcomeCompleted {
		t.Fatal("IMU Random completed; paper reports 2.5%")
	}
	if res.FlightDurationSec > 30 {
		t.Errorf("IMU Random failure at %v s, want fast", res.FlightDurationSec)
	}
}

// TestFaultPathAblation decomposes where gyro-fault damage enters: with
// BOTH the rate loop and the EKF shielded the mission completes; with
// either path exposed, a full-scale gyro fault still kills it. This is the
// factorial ablation behind BenchmarkAblationRateSource — and the reason
// the paper's call for EKF-level mitigation alone would not be enough.
func TestFaultPathAblation(t *testing.T) {
	inj := &faultinject.Injection{
		Primitive: faultinject.Zeros, Target: faultinject.TargetGyro,
		Start: 20 * time.Second, Duration: 10 * time.Second, Seed: 1,
	}
	run := func(shieldRate, shieldEKF bool) Outcome {
		cfg := DefaultConfig()
		cfg.ShieldRateLoop = shieldRate
		cfg.ShieldEKF = shieldEKF
		res, err := Run(cfg, shortMission(), inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcome
	}
	if got := run(true, true); got != OutcomeCompleted {
		t.Errorf("both paths shielded: %v, want completed", got)
	}
	if got := run(false, false); got == OutcomeCompleted {
		t.Error("no shielding completed a full-scale gyro fault")
	}
	if got := run(true, false); got == OutcomeCompleted {
		t.Error("EKF-exposed run completed: attitude corruption should kill it")
	}
	if got := run(false, true); got == OutcomeCompleted {
		t.Error("rate-loop-exposed run completed: rate corruption should kill it")
	}
}

func TestFaultBeforeTakeoffWindowPassesThrough(t *testing.T) {
	// An injection window that ends before flight events matter: freeze
	// during the first second on the pad.
	inj := &faultinject.Injection{
		Primitive: faultinject.Freeze, Target: faultinject.TargetAccel,
		Start: 0, Duration: 500 * time.Millisecond, Seed: 1,
	}
	res, err := Run(DefaultConfig(), shortMission(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCompleted {
		t.Errorf("pad-window fault outcome = %v (%s%s)", res.Outcome, res.FailsafeCause, res.CrashReason)
	}
}

// TestMitigationPipeline verifies the paper's proposed software
// mitigations change outcomes the way DESIGN.md section 8 claims: a
// frozen gyro's uncontrolled crash becomes a controlled stuck-sensor
// termination detected within ~100 ms, and clean flights are unaffected.
func TestMitigationPipeline(t *testing.T) {
	mitigated := DefaultConfig()
	mitigated.Mitigation = mitigation.DefaultConfig()

	freeze := &faultinject.Injection{
		Primitive: faultinject.Freeze, Target: faultinject.TargetGyro,
		Start: 20 * time.Second, Duration: 10 * time.Second, Seed: 3,
	}
	res, err := Run(mitigated, shortMission(), freeze, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeFailsafe || res.FailsafeCause != "stuck-sensor" {
		t.Errorf("mitigated gyro freeze = %v/%s, want failsafe/stuck-sensor",
			res.Outcome, res.FailsafeCause)
	}

	gold, err := Run(mitigated, shortMission(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gold.Outcome != OutcomeCompleted || gold.InnerViolations != 0 {
		t.Errorf("mitigated gold run degraded: %v, %d violations", gold.Outcome, gold.InnerViolations)
	}
}

// TestMitigationMaskingHazard documents the pipeline's sharpest edge: a
// low-pass smoothing stage can hide a noisy-gyro fault from the
// failsafe's 60°/s threshold while the vehicle remains uncontrollable —
// the baseline's controlled termination becomes a crash. Detection must
// run on the raw stream (as the stuck guard does), never after smoothing.
func TestMitigationMaskingHazard(t *testing.T) {
	m := mission.Valencia()[4]
	inj := &faultinject.Injection{
		Primitive: faultinject.Noise, Target: faultinject.TargetGyro,
		Start: 90 * time.Second, Duration: 10 * time.Second, Seed: 4,
	}
	baselineCfg := DefaultConfig()
	baselineCfg.Seed = 4
	baseline, err := Run(baselineCfg, m, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Outcome != OutcomeFailsafe {
		t.Fatalf("baseline outcome = %v, want failsafe (gyro-rate)", baseline.Outcome)
	}

	smoothed := baselineCfg
	smoothed.Mitigation = mitigation.Config{MedianWindow: 5, LowPassHz: 20}
	masked, err := Run(smoothed, m, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if masked.Outcome == OutcomeFailsafe && masked.FailsafeCause == "gyro-rate" &&
		masked.FlightDurationSec <= baseline.FlightDurationSec {
		t.Errorf("smoothing did not delay or mask detection (outcome %v at %.1f s); "+
			"the masking hazard this test documents has disappeared — re-evaluate DESIGN.md section 8",
			masked.Outcome, masked.FlightDurationSec)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeCompleted: "completed", OutcomeCrash: "crash",
		OutcomeFailsafe: "failsafe", OutcomeTimeout: "timeout",
	} {
		if o.String() != want {
			t.Errorf("%d = %q", int(o), o.String())
		}
	}
	if !OutcomeCompleted.Completed() || OutcomeCrash.Completed() {
		t.Error("Completed() predicate wrong")
	}
}

func TestResultLabel(t *testing.T) {
	if got := (Result{}).Label(); got != "Gold Run" {
		t.Errorf("gold label = %q", got)
	}
	r := Result{Injection: &faultinject.Injection{Primitive: faultinject.Zeros, Target: faultinject.TargetGyro}}
	if got := r.Label(); got != "Gyro Zeros" {
		t.Errorf("label = %q", got)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad_dt", func(c *Config) { c.PhysicsDt = 0.5 }},
		{"bad_maxtime", func(c *Config) { c.MaxSimTime = 0 }},
		{"bad_imus", func(c *Config) { c.IMUCount = 0 }},
		{"too_many_imus", func(c *Config) { c.IMUCount = sensors.MaxIMUs + 1 }},
		{"bad_airframe", func(c *Config) { c.Airframe.MassKg = 0 }},
		{"bad_imuspec", func(c *Config) { c.IMUSpec.RateHz = 0 }},
		{"rng_ziggurat", func(c *Config) { c.RNGPolicy = "ziggurat" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestAllGoldMissionsComplete is the scenario-level integration gate: all
// ten Valencia missions must complete fault-free with zero violations
// (the paper's Gold Run row). Slow (~7 s); skipped in -short runs.
func TestAllGoldMissionsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full gold sweep is slow")
	}
	cfg := DefaultConfig()
	var dur, dist float64
	for _, m := range mission.Valencia() {
		cfg.Seed = int64(1000 + m.ID)
		res, err := Run(cfg, m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeCompleted {
			t.Errorf("mission %d gold outcome = %v (%s%s)", m.ID, res.Outcome, res.FailsafeCause, res.CrashReason)
		}
		if res.InnerViolations != 0 || res.OuterViolations != 0 {
			t.Errorf("mission %d gold violations inner=%d outer=%d", m.ID, res.InnerViolations, res.OuterViolations)
		}
		dur += res.FlightDurationSec
		dist += res.DistanceKm
	}
	meanDur := dur / 10
	if meanDur < 420 || meanDur > 540 {
		t.Errorf("gold mean duration %v s, want in the neighbourhood of the paper's 491 s", meanDur)
	}
	t.Logf("gold means: duration=%.1f s (paper 491.26), distance=%.2f km (paper 3.65)", meanDur, dist/10)
}

// TestRedundancyScopeAblation challenges the paper's "fault affects all
// redundant sensors" assumption: when the same gyro faults strike only
// one of the three IMUs, cross-unit consistency voting switches it out
// within ~20 ms and every mission completes. The all-units scope remains
// as fatal as the paper reports.
func TestRedundancyScopeAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ablation")
	}
	m := mission.Valencia()[4]
	// Zeros/Freeze on the gyro at cruise are near-plausible readings
	// (true rates are small), so whether voting catches the fault before
	// the slow destabilization exceeds the failsafe envelope depends on
	// the noise realization. It does for 9 of the env seeds in 0..9; this
	// pins one of them rather than the default seed.
	cfg := DefaultConfig()
	cfg.Seed = 2
	for _, p := range []faultinject.Primitive{faultinject.MinValue, faultinject.Zeros, faultinject.Freeze} {
		allUnits := &faultinject.Injection{
			Primitive: p, Target: faultinject.TargetGyro,
			Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 3,
			Scope: faultinject.ScopeAllUnits,
		}
		res, err := Run(cfg, m, allUnits, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == OutcomeCompleted {
			t.Errorf("gyro %v all-units completed; the paper's assumption makes it fatal", p)
		}

		oneUnit := *allUnits
		oneUnit.Scope = faultinject.ScopePrimaryUnit
		res, err = Run(cfg, m, &oneUnit, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeCompleted {
			t.Errorf("gyro %v primary-unit = %v (%s%s); voting should rescue it",
				p, res.Outcome, res.FailsafeCause, res.CrashReason)
		}
	}
}

// TestVotingSilentWithoutRedundantDisagreement: with voting enabled and an
// all-units fault, the primary never gets switched by the voter (all units
// agree), so results match the paper's single-stream behaviour.
func TestVotingDoesNotDisturbGold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RedundancyVoting = true
	res, err := Run(cfg, shortMission(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCompleted || res.InnerViolations != 0 {
		t.Errorf("gold with voting: %v, %d violations", res.Outcome, res.InnerViolations)
	}
}

// TestTimeoutOutcome: a MaxSimTime too short to finish classifies as
// timeout with the full duration recorded.
func TestTimeoutOutcome(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSimTime = 20 // the hop needs ~55 s
	res, err := Run(cfg, shortMission(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeTimeout {
		t.Errorf("outcome = %v, want timeout", res.Outcome)
	}
	if res.FlightDurationSec != 20 {
		t.Errorf("duration = %v, want MaxSimTime", res.FlightDurationSec)
	}
}

// TestFaultDuringTakeoff: the injection window is legal anywhere in the
// flight; a gyro fault during the climb is just as fatal.
func TestFaultDuringTakeoff(t *testing.T) {
	inj := &faultinject.Injection{
		Primitive: faultinject.MinValue, Target: faultinject.TargetGyro,
		Start: 3 * time.Second, Duration: 5 * time.Second, Seed: 1,
	}
	res, err := Run(DefaultConfig(), shortMission(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == OutcomeCompleted {
		t.Error("full-scale gyro fault during takeoff completed")
	}
	if res.FlightDurationSec > 30 {
		t.Errorf("takeoff fault took %v s to end the flight", res.FlightDurationSec)
	}
}

// TestFaultWindowNeverReached: an injection scheduled beyond the flight's
// natural end must leave the mission untouched.
func TestFaultWindowNeverReached(t *testing.T) {
	inj := &faultinject.Injection{
		Primitive: faultinject.MinValue, Target: faultinject.TargetIMU,
		Start: 800 * time.Second, Duration: 30 * time.Second, Seed: 1,
	}
	res, err := Run(DefaultConfig(), shortMission(), inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCompleted || res.InnerViolations != 0 {
		t.Errorf("never-activated fault: %v, %d violations", res.Outcome, res.InnerViolations)
	}
}

// TestGeoAuthoredMissionFlies: a mission defined in geodetic coordinates
// (the form U-space exchanges) flies end to end through the same stack.
func TestGeoAuthoredMissionFlies(t *testing.T) {
	frame, err := mission.ValenciaFrame()
	if err != nil {
		t.Fatal(err)
	}
	m, err := mission.FromGeo(7, "geo-authored", frame,
		mission.DroneSpec{Name: "t", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 5},
		3.3, 15,
		[]geo.LLA{
			{LatDeg: 39.4699, LonDeg: -0.3763},
			{LatDeg: 39.4708, LonDeg: -0.3763, AltM: 15},
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultConfig(), m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCompleted {
		t.Errorf("geo mission outcome = %v (%s%s)", res.Outcome, res.FailsafeCause, res.CrashReason)
	}
}

// TestTenSecondRunAllocCeiling caps the allocations of ten simulated
// vehicle-seconds of a gold flight: the per-tick kernels allocate nothing
// (each package pins its own at zero), and every component is built in
// place in the vehicle, so what remains is the Vehicle and the result's
// diagnostics. 5 is the count measured under go1.24.0. A per-tick
// allocation adds thousands; even one per bubble observation (1 Hz) adds
// ten, and a constructor that heap-allocates its component adds one.
func TestTenSecondRunAllocCeiling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSimTime = 10 // the mission cannot finish in 10 s: fixed work
	m := mission.Valencia()[0]
	n := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg, m, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if n > 5 {
		t.Errorf("10 s sim.Run allocates %v per run, want <= 5", n)
	}
}

// TestForkWithInjectionAllocCeiling caps the allocations of one fork off
// a 30 s mission-1 checkpoint: the vehicle. The whole state is copied by
// one struct assignment and the fresh injector is built in place in it,
// so they add none. 1 is the count measured under go1.24.0.
func TestForkWithInjectionAllocCeiling(t *testing.T) {
	cfg := DefaultConfig()
	m := mission.Valencia()[0]
	gyro := func(p faultinject.Primitive) *faultinject.Injection {
		return &faultinject.Injection{Primitive: p, Target: faultinject.TargetGyro,
			Start: 30 * time.Second, Duration: 5 * time.Second, Seed: 3}
	}
	v, err := NewVehicle(cfg, m, gyro(faultinject.Freeze), nil)
	if err != nil {
		t.Fatal(err)
	}
	v.RunUntil(30)
	cp := v.Snapshot()
	inj := gyro(faultinject.Noise)
	n := testing.AllocsPerRun(20, func() {
		if _, err := cp.ForkWithInjection(inj, nil); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("ForkWithInjection allocates %v per fork, want <= 1", n)
	}
}

// TestOverwritesAllFollowsScope pins when an IMU tick composes the primary
// alone: only a sensor fault striking every unit overwrites them all. A
// primary-scope sensor fault leaves the spares' own samples to the vote,
// an actuator fault leaves every sample alone, and a single-unit set is
// overwritten whole by either scope.
func TestOverwritesAllFollowsScope(t *testing.T) {
	inj := func(target faultinject.Target, scope faultinject.Scope) *faultinject.Injection {
		return &faultinject.Injection{Primitive: faultinject.Freeze, Target: target, Scope: scope,
			Start: 10 * time.Second, Duration: 5 * time.Second}
	}
	stuck := &faultinject.Injection{Primitive: faultinject.StuckRotor, Target: faultinject.TargetRotor,
		Start: 10 * time.Second, Duration: 5 * time.Second}
	for _, tc := range []struct {
		name  string
		units int
		inj   *faultinject.Injection
		want  bool
	}{
		{"gold", 3, nil, false},
		{"all-units", 3, inj(faultinject.TargetGyro, faultinject.ScopeAllUnits), true},
		{"primary", 3, inj(faultinject.TargetGyro, faultinject.ScopePrimaryUnit), false},
		{"actuator", 3, stuck, false},
		{"single-unit-primary", 1, inj(faultinject.TargetAccel, faultinject.ScopePrimaryUnit), true},
	} {
		cfg := DefaultConfig()
		cfg.IMUCount = tc.units
		v, err := NewVehicle(cfg, shortMission(), tc.inj, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v.overwritesAll != tc.want {
			t.Errorf("%s: overwritesAll = %v, want %v", tc.name, v.overwritesAll, tc.want)
		}
	}
}

// TestGoldFlightCovarianceFlushes pins the covariance cost of the paper
// campaign's mission-1 gold flight (seed 1) exactly: its predicts, and
// the decimated windows the EKF applies to P. A window closes at the
// next consumer of P — the 25 Hz gravity and baro fusions, GPS, mag —
// so the flush count moves only when the fusion cadence or the window
// rule does. Under a fixed 4-predict window the same flight flushed
// 46,318 times. Skipped in -short runs.
func TestGoldFlightCovarianceFlushes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length gold flight")
	}
	cfg := DefaultConfig()
	cfg.Seed = 8693678978585383319 // core.CaseSeed(1, 1, 0, 0, 0), the campaign's m01-gold seed
	v, err := NewVehicle(cfg, mission.Valencia()[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := v.RunToEnd()
	if res.Outcome != OutcomeCompleted {
		t.Fatalf("gold outcome = %v", res.Outcome)
	}
	const wantPredicts, wantFlushes = 118_136, 24_955
	if n := v.s.imuSets; n != wantPredicts {
		t.Errorf("predicts = %d, want %d", n, wantPredicts)
	}
	if n := v.s.filter.CovarianceFlushes(); n != wantFlushes {
		t.Errorf("covariance flushes = %d, want %d", n, wantFlushes)
	}
}
