package ekf

import (
	"math"
	"testing"

	"uavres/internal/mathx"
	"uavres/internal/physics"
	"uavres/internal/sensors"
)

// noisyStationaryFlight drives one filter through secs seconds of noisy
// stationary flight at 250 Hz with baro (25 Hz) + gravity (25 Hz) + GPS
// (5 Hz) aiding, recording every innovation test ratio the filter reports.
// The rng seeds make two calls produce identical measurement streams, so
// two filters differing only in covariance decimation see the same world.
func noisyStationaryFlight(f *Filter, secs float64, seed int64) (ratios []float64) {
	rng := mathx.NewRand(seed)
	const dt = 0.004
	steps := int(secs / dt)
	for i := 0; i < steps; i++ {
		tm := float64(i) * dt
		s := sensors.IMUSample{
			T:     tm,
			Accel: mathx.V3(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05, -physics.Gravity+rng.NormFloat64()*0.05),
			Gyro:  mathx.V3(rng.NormFloat64()*0.002, rng.NormFloat64()*0.002, rng.NormFloat64()*0.002),
		}
		f.Predict(s, dt)
		if i%10 == 0 { // 25 Hz
			f.FuseBaro(sensors.BaroSample{T: tm, AltM: rng.NormFloat64() * 0.1})
			ratios = append(ratios, f.Health().LastBaroRatio)
			f.FuseGravity(s)
		}
		if i%50 == 0 { // 5 Hz
			f.FuseGPS(sensors.GPSSample{
				T:      tm,
				Valid:  true,
				PosNED: mathx.V3(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3, rng.NormFloat64()*0.3),
				VelNED: mathx.V3(rng.NormFloat64()*0.1, rng.NormFloat64()*0.1, rng.NormFloat64()*0.1),
			})
			ratios = append(ratios, f.Health().LastGPSRatio)
		}
	}
	return ratios
}

// TestDecimationDriftBounded is the tentpole's accuracy gate: decimated
// covariance propagation (k=4) must track the exact per-step path — the
// innovation test ratios (NEES per scalar channel, gate-normalized) and
// the covariance itself may only drift by a small bounded amount over a
// long aided flight.
func TestDecimationDriftBounded(t *testing.T) {
	cfgExact := DefaultConfig()
	cfgExact.CovarianceDecimation = 1
	cfgDecim := DefaultConfig()
	cfgDecim.CovarianceDecimation = 4

	fe := New(cfgExact)
	fd := New(cfgDecim)
	const seed = 42
	re := noisyStationaryFlight(fe, 30, seed)
	rd := noisyStationaryFlight(fd, 30, seed)

	if len(re) != len(rd) || len(re) == 0 {
		t.Fatalf("fusion counts differ: %d vs %d", len(re), len(rd))
	}
	maxRatioDrift := 0.0
	for i := range re {
		if d := math.Abs(re[i] - rd[i]); d > maxRatioDrift {
			maxRatioDrift = d
		}
	}
	// Gate-normalized ratios are O(0.1) in nominal flight; decimation may
	// shift them only marginally.
	if maxRatioDrift > 0.02 {
		t.Errorf("innovation-ratio drift %v exceeds bound 0.02", maxRatioDrift)
	}

	for i := 0; i < dim; i++ {
		ve, vd := fe.Covariance(i), fd.Covariance(i)
		if rel := math.Abs(ve-vd) / ve; rel > 0.05 {
			t.Errorf("covariance diag %d drifted %.2f%% (exact %v decimated %v)", i, rel*100, ve, vd)
		}
	}

	se, sd := fe.State(), fd.State()
	if d := se.Pos.Sub(sd.Pos).Norm(); d > 0.05 {
		t.Errorf("position estimates drifted %v m", d)
	}
	if d := se.Vel.Sub(sd.Vel).Norm(); d > 0.05 {
		t.Errorf("velocity estimates drifted %v m/s", d)
	}
}

// TestDecimationCovarianceMatchesFullRateAtFlush: with no aiding at all,
// the decimated covariance at a flush boundary must closely match the
// per-step path (the only difference is the scaled-Q interleave, which is
// second order in the window length).
func TestDecimationCovarianceMatchesFullRateAtFlush(t *testing.T) {
	cfgExact := DefaultConfig()
	cfgExact.CovarianceDecimation = 1
	cfgDecim := DefaultConfig()
	cfgDecim.CovarianceDecimation = 4
	fe := New(cfgExact)
	fd := New(cfgDecim)

	const dt = 0.004
	sample := sensors.IMUSample{
		Accel: mathx.V3(0.4, -0.2, -physics.Gravity+0.1),
		Gyro:  mathx.V3(0.05, -0.03, 0.02),
	}
	for i := 0; i < 1000; i++ { // 4 s, 250 flush windows
		tm := float64(i) * dt
		s := sample
		s.T = tm
		fe.Predict(s, dt)
		fd.Predict(s, dt)
	}
	for i := 0; i < dim; i++ {
		ve, vd := fe.Covariance(i), fd.Covariance(i)
		if rel := math.Abs(ve-vd) / ve; rel > 0.01 {
			t.Errorf("diag %d: exact %v decimated %v (rel %.3f%%)", i, ve, vd, rel*100)
		}
	}
}

// TestDecimationPhaseAndForcing exercises the window bookkeeping: the
// pending counter, flush-on-read, and the fault-window full-rate override.
func TestDecimationPhaseAndForcing(t *testing.T) {
	f := New(DefaultConfig()) // k=4
	const dt = 0.004
	step := func(n int) {
		for i := 0; i < n; i++ {
			f.Predict(stationarySample(float64(i)*dt), dt)
		}
	}

	step(3)
	if f.pending != 3 {
		t.Fatalf("pending after 3 predicts = %d, want 3", f.pending)
	}
	step(1)
	if f.pending != 0 {
		t.Fatalf("pending after flush boundary = %d, want 0", f.pending)
	}

	step(2)
	if f.pending != 2 {
		t.Fatalf("pending mid-window = %d, want 2", f.pending)
	}
	// Reading the covariance flushes the window.
	_ = f.Covariance(idxPos)
	if f.pending != 0 {
		t.Fatalf("Covariance read must flush; pending = %d", f.pending)
	}

	// Forcing full rate flushes and keeps the exact path step-by-step.
	step(2)
	f.SetCovarianceFullRate(true)
	if f.pending != 0 {
		t.Fatalf("entering full rate must flush; pending = %d", f.pending)
	}
	step(5)
	if f.pending != 0 {
		t.Fatalf("full-rate predicts must not accumulate; pending = %d", f.pending)
	}
	f.SetCovarianceFullRate(false)
	step(2)
	if f.pending != 2 {
		t.Fatalf("decimation must resume after release; pending = %d", f.pending)
	}

	// A measurement update flushes before fusing.
	f.FuseBaro(sensors.BaroSample{T: 1, AltM: 0})
	if f.pending != 0 {
		t.Fatalf("fusion must flush; pending = %d", f.pending)
	}
}

// TestDecimationSnapshotCarriesWindow: the mid-window accumulator must
// ride Snapshot/Restore so forked runs resume bit-identically.
func TestDecimationSnapshotCarriesWindow(t *testing.T) {
	f := New(DefaultConfig())
	const dt = 0.004
	for i := 0; i < 6; i++ { // pending = 2 (6 mod 4)
		f.Predict(stationarySample(float64(i)*dt), dt)
	}
	snap := f.Snapshot()

	g := New(DefaultConfig())
	g.Restore(snap)
	if g.pending != f.pending {
		t.Fatalf("pending not restored: %d vs %d", g.pending, f.pending)
	}
	if g.acc != f.acc {
		t.Fatalf("transition accumulator not restored")
	}

	// Continuing both must stay bit-identical.
	for i := 6; i < 20; i++ {
		s := stationarySample(float64(i) * dt)
		f.Predict(s, dt)
		g.Predict(s, dt)
	}
	if f.p != g.p {
		t.Fatalf("covariance diverged after restore")
	}
	if f.st != g.st {
		t.Fatalf("state diverged after restore")
	}
}

// TestPredictAllocFree pins the predict hot path at zero allocations per
// op, on both the decimated and the exact covariance path (alloc
// regression guard; the campaign runs this 250 times per sim-second).
func TestPredictAllocFree(t *testing.T) {
	for _, k := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.CovarianceDecimation = k
		f := New(cfg)
		s := stationarySample(0)
		const dt = 0.004
		if n := testing.AllocsPerRun(100, func() { f.Predict(s, dt) }); n != 0 {
			t.Errorf("Predict k=%d allocates %v per op, want 0", k, n)
		}
	}
}

// TestFuseAllocFree pins the measurement-update hot path at zero
// allocations per op.
func TestFuseAllocFree(t *testing.T) {
	f := New(DefaultConfig())
	s := stationarySample(0)
	f.Predict(s, 0.004)
	bar := sensors.BaroSample{T: 0.1, AltM: 0}
	if n := testing.AllocsPerRun(100, func() { f.FuseBaro(bar) }); n != 0 {
		t.Errorf("FuseBaro allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { f.FuseGravity(s) }); n != 0 {
		t.Errorf("FuseGravity allocates %v per op, want 0", n)
	}
	gps := sensors.GPSSample{T: 0.2, Valid: true}
	if n := testing.AllocsPerRun(100, func() { f.FuseGPS(gps) }); n != 0 {
		t.Errorf("FuseGPS allocates %v per op, want 0", n)
	}
}
