package failsafe

import (
	"testing"

	"uavres/internal/ekf"
	"uavres/internal/mathx"
	"uavres/internal/sensors"
)

func quietSample(t float64) sensors.IMUSample {
	return sensors.IMUSample{T: t, Accel: mathx.V3(0, 0, -9.8), Gyro: mathx.V3(0.05, 0, 0)}
}

func spinningSample(t float64) sensors.IMUSample {
	// 120 deg/s: twice the paper's 60 deg/s default threshold.
	return sensors.IMUSample{T: t, Accel: mathx.V3(0, 0, -9.8), Gyro: mathx.V3(mathx.Deg2Rad(120), 0, 0)}
}

func testIMUSet(t *testing.T) *sensors.RedundantIMUs {
	t.Helper()
	set, err := sensors.NewRedundantIMUs(3, sensors.DefaultIMUSpec(), mathx.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	return &set
}

// testMonitor is a monitor flying one fixed Config.
type testMonitor struct {
	Monitor
	cfg Config
}

func newTestMonitor(cfg Config) *testMonitor { return &testMonitor{NewMonitor(), cfg} }

func (m *testMonitor) update(obs Observation, imus *sensors.RedundantIMUs) Phase {
	return m.Update(&m.cfg, obs, imus)
}

// drive feeds the monitor a fixed sample function at 50 Hz over [t0, t1).
func drive(m *testMonitor, set *sensors.RedundantIMUs, t0, t1 float64, f func(float64) sensors.IMUSample, h ekf.Health) Phase {
	var p Phase
	for t := t0; t < t1; t += 0.02 {
		p = m.update(Observation{T: t, IMU: f(t), Health: h, EstVelHorizMS: 3, MaxSpeedMS: 5}, set)
	}
	return p
}

func TestNominalStaysNominal(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	p := drive(m, testIMUSet(t), 0, 30, quietSample, ekf.Health{})
	if p != PhaseNominal {
		t.Errorf("phase = %v, want nominal", p)
	}
	if m.Cause() != CauseNone {
		t.Errorf("cause = %v, want none", m.Cause())
	}
}

func TestGyroThresholdTripsAfterPersistence(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	set := testIMUSet(t)
	// Short spike below the persistence window: no isolation.
	drive(m, set, 0, 0.3, spinningSample, ekf.Health{})
	if got := drive(m, set, 0.3, 1.0, quietSample, ekf.Health{}); got != PhaseNominal {
		t.Errorf("phase after sub-persistence spike = %v", got)
	}
	// Sustained rate: isolation begins.
	p := drive(m, set, 1.0, 2.0, spinningSample, ekf.Health{})
	if p != PhaseIsolating {
		t.Errorf("phase = %v, want isolating", p)
	}
	if m.Cause() != CauseGyroRate {
		t.Errorf("cause = %v, want gyro-rate", m.Cause())
	}
}

func TestFailsafeActivatesAfterIsolationDelay(t *testing.T) {
	cfg := DefaultConfig()
	m := newTestMonitor(cfg)
	set := testIMUSet(t)
	p := drive(m, set, 0, 10, spinningSample, ekf.Health{})
	if p != PhaseActive {
		t.Fatalf("phase = %v, want active", p)
	}
	// The paper: failsafe takes a minimum of 1900 ms (isolation stage).
	// Detection itself needs GyroPersistSec first.
	elapsed := m.ActivatedAt() - cfg.GyroPersistSec
	if elapsed < cfg.IsolationDelaySec {
		t.Errorf("failsafe after %v s of isolation, want >= %v", elapsed, cfg.IsolationDelaySec)
	}
	if m.Switches() != set.Count() {
		t.Errorf("switched %d sensors, want all %d", m.Switches(), set.Count())
	}
}

func TestRecoveryDuringIsolationStandsDown(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	set := testIMUSet(t)
	// Trip detection, then recover before the isolation delay elapses:
	// like a 2-second fault window ending.
	drive(m, set, 0, 1.2, spinningSample, ekf.Health{})
	if m.Phase() != PhaseIsolating {
		t.Fatalf("setup failed: phase = %v", m.Phase())
	}
	p := drive(m, set, 1.2, 5, quietSample, ekf.Health{})
	if p != PhaseNominal {
		t.Errorf("phase after recovery = %v, want nominal", p)
	}
	if m.ActivatedAt() != 0 {
		t.Error("failsafe recorded activation despite recovery")
	}
}

func TestFailsafeLatches(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	set := testIMUSet(t)
	drive(m, set, 0, 10, spinningSample, ekf.Health{})
	if m.Phase() != PhaseActive {
		t.Fatal("setup failed")
	}
	// Recovery after activation must not clear it: flight is terminated.
	p := drive(m, set, 10, 15, quietSample, ekf.Health{})
	if p != PhaseActive {
		t.Errorf("failsafe un-latched to %v", p)
	}
}

func TestAccelImplausibilityPath(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	full := func(t float64) sensors.IMUSample {
		return sensors.IMUSample{T: t, Accel: mathx.V3(sensors.AccelRange, 0, 0)}
	}
	p := drive(m, testIMUSet(t), 0, 1.5, full, ekf.Health{})
	if p != PhaseIsolating || m.Cause() != CauseAccelImplausible {
		t.Errorf("phase=%v cause=%v, want isolating/accel-implausible", p, m.Cause())
	}
}

func TestAccelWithinCapabilityDoesNotTrip(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	brisk := func(t float64) sensors.IMUSample {
		return sensors.IMUSample{T: t, Accel: mathx.V3(5, 5, -15)} // aggressive but plausible
	}
	if p := drive(m, testIMUSet(t), 0, 5, brisk, ekf.Health{}); p != PhaseNominal {
		t.Errorf("plausible accel tripped detector: %v", p)
	}
}

func TestEKFAidingPath(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	h := ekf.Health{GPSRejectSec: 7.0}
	if p := drive(m, testIMUSet(t), 0, 0.1, quietSample, h); p != PhaseIsolating {
		t.Errorf("phase = %v, want isolating on GPS rejection", p)
	}
	if m.Cause() != CauseEKFAiding {
		t.Errorf("cause = %v", m.Cause())
	}
}

func TestEKFDivergencePathImmediate(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	p := m.update(Observation{T: 1, IMU: quietSample(1), Health: ekf.Health{Diverged: true}}, nil)
	if p != PhaseIsolating || m.Cause() != CauseEKFDiverged {
		t.Errorf("phase=%v cause=%v", p, m.Cause())
	}
}

func TestNilIMUSetStillActivates(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	var p Phase
	for tm := 0.0; tm < 10; tm += 0.02 {
		p = m.update(Observation{T: tm, IMU: spinningSample(tm)}, nil)
	}
	if p != PhaseActive {
		t.Errorf("single-IMU vehicle never activated failsafe: %v", p)
	}
}

func TestVelocityEnvelopePath(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	set := testIMUSet(t)
	// Estimated ground speed of 20 m/s on a 5 m/s airframe: impossible.
	// Detection needs VelEnvelopePersistSec (1 s); stop before the
	// isolation stage (1.9 s more) completes.
	var p Phase
	for tm := 0.0; tm < 2.5; tm += 0.02 {
		p = m.update(Observation{T: tm, IMU: quietSample(tm), EstVelHorizMS: 20, MaxSpeedMS: 5}, set)
	}
	if p != PhaseIsolating || m.Cause() != CauseVelEnvelope {
		t.Errorf("phase=%v cause=%v, want isolating/velocity-envelope", p, m.Cause())
	}
	// Continuing past the isolation delay activates failsafe.
	for tm := 2.5; tm < 5; tm += 0.02 {
		p = m.update(Observation{T: tm, IMU: quietSample(tm), EstVelHorizMS: 20, MaxSpeedMS: 5}, set)
	}
	if p != PhaseActive {
		t.Errorf("phase after isolation = %v, want active", p)
	}
}

func TestStuckSensorPath(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	// The stuck flag arrives pre-debounced from the mitigation guard:
	// isolation starts on the first observation carrying it.
	p := m.update(Observation{T: 1, IMU: quietSample(1), StuckSensor: true}, nil)
	if p != PhaseIsolating || m.Cause() != CauseStuckSensor {
		t.Errorf("phase=%v cause=%v, want isolating/stuck-sensor", p, m.Cause())
	}
}

func TestVelocityEnvelopeIgnoresPlausibleSpeed(t *testing.T) {
	m := newTestMonitor(DefaultConfig())
	set := testIMUSet(t)
	for tm := 0.0; tm < 5; tm += 0.02 {
		if p := m.update(Observation{T: tm, IMU: quietSample(tm), EstVelHorizMS: 7, MaxSpeedMS: 5}, set); p != PhaseNominal {
			t.Fatalf("modest overspeed tripped envelope: %v", p)
		}
	}
}

func TestConfigurableGyroThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GyroRateThreshold = mathx.Deg2Rad(200) // raised threshold
	m := newTestMonitor(cfg)
	if p := drive(m, testIMUSet(t), 0, 5, spinningSample, ekf.Health{}); p != PhaseNominal {
		t.Errorf("120 deg/s tripped a 200 deg/s threshold: %v", p)
	}
}

func TestCrashDetectorHardImpact(t *testing.T) {
	var c CrashDetector
	cfg := DefaultConfig()
	c.Update(&cfg, 10, false, 0, 0) // airborne: nothing
	if c.Crashed() {
		t.Fatal("airborne crash")
	}
	c.Update(&cfg, 11, true, 8.0, 0) // 8 m/s touchdown
	if !c.Crashed() || c.Reason() != "hard impact" || c.At() != 11 {
		t.Errorf("crashed=%v reason=%q at=%v", c.Crashed(), c.Reason(), c.At())
	}
}

func TestCrashDetectorFlipOver(t *testing.T) {
	var c CrashDetector
	cfg := DefaultConfig()
	c.Update(&cfg, 5, true, 1.0, mathx.Deg2Rad(90))
	if !c.Crashed() || c.Reason() != "flip-over" {
		t.Errorf("crashed=%v reason=%q", c.Crashed(), c.Reason())
	}
}

func TestCrashDetectorGentleLandingOK(t *testing.T) {
	var c CrashDetector
	cfg := DefaultConfig()
	c.Update(&cfg, 100, true, 0.8, 0.05)
	if c.Crashed() {
		t.Error("gentle landing classified as crash")
	}
}

func TestCrashLatches(t *testing.T) {
	var c CrashDetector
	cfg := DefaultConfig()
	c.Update(&cfg, 5, true, 9, 0)
	c.Update(&cfg, 6, true, 0, 0) // settled afterwards
	if !c.Crashed() || c.At() != 5 {
		t.Error("crash latch lost")
	}
}

func TestPhaseAndCauseStrings(t *testing.T) {
	if PhaseNominal.String() != "nominal" || PhaseIsolating.String() != "isolating" || PhaseActive.String() != "failsafe" {
		t.Error("phase strings wrong")
	}
	for c, want := range map[Cause]string{
		CauseNone: "none", CauseGyroRate: "gyro-rate",
		CauseAccelImplausible: "accel-implausible",
		CauseEKFAiding:        "ekf-aiding", CauseEKFDiverged: "ekf-diverged",
		CauseVelEnvelope: "velocity-envelope",
	} {
		if c.String() != want {
			t.Errorf("cause %d = %q, want %q", int(c), c.String(), want)
		}
	}
}
