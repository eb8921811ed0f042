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

// TestDecimationDriftBounded is the accuracy gate of the decimated path:
// covariance propagation at the default cap, its windows closed by the
// 25 Hz fusions, must track the exact per-step path — the innovation test
// ratios (NEES per scalar channel, gate-normalized) and the covariance
// itself may only drift by a small bounded amount over a long aided
// flight.
func TestDecimationDriftBounded(t *testing.T) {
	cfgExact := DefaultConfig()
	cfgExact.CovarianceDecimation = 1
	cfgDecim := DefaultConfig()

	fe := New(cfgExact)
	fd := New(cfgDecim)
	const seed = 42
	re := noisyStationaryFlight(&fe, 30, seed)
	rd := noisyStationaryFlight(&fd, 30, seed)

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
// only the cap closes windows, and the decimated covariance at a flush
// boundary must closely match the per-step path (the only difference is
// the scaled-Q interleave, which is second order in the window length).
func TestDecimationCovarianceMatchesFullRateAtFlush(t *testing.T) {
	cfgExact := DefaultConfig()
	cfgExact.CovarianceDecimation = 1
	cfgDecim := DefaultConfig()
	fe := New(cfgExact)
	fd := New(cfgDecim)

	const dt = 0.004
	sample := sensors.IMUSample{
		Accel: mathx.V3(0.4, -0.2, -physics.Gravity+0.1),
		Gyro:  mathx.V3(0.05, -0.03, 0.02),
	}
	for i := 0; i < 1000; i++ { // 4 s: 40 windows at the default cap of 25
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

// TestDecimationPhaseAndForcing exercises the window bookkeeping: a
// window stays open across predicts until a covariance read closes it
// (every consumer of P is one) or the cap does, and the fault-window
// full-rate override bypasses it.
func TestDecimationPhaseAndForcing(t *testing.T) {
	f := New(DefaultConfig())
	k := f.cfg.CovarianceDecimation
	const dt = 0.004
	step := func(n int) {
		for i := 0; i < n; i++ {
			f.Predict(stationarySample(float64(i)*dt), dt)
		}
	}
	want := func(what string, pending int, flushes int64) {
		t.Helper()
		if f.pending != pending || f.flushes != flushes {
			t.Fatalf("%s: pending %d flushes %d, want %d and %d", what, f.pending, f.flushes, pending, flushes)
		}
	}

	// With no read, only the cap closes the window.
	step(k - 1)
	want("one predict short of the cap", k-1, 0)
	step(1)
	want("at the cap", 0, 1)

	// Each consumer of P closes the open window before it reads.
	reads := []struct {
		name string
		read func()
	}{
		{"Covariance", func() { _ = f.Covariance(idxPos) }},
		{"AttitudeStd", func() { _ = f.AttitudeStd() }},
		{"FuseBaro", func() { f.FuseBaro(sensors.BaroSample{T: 1, AltM: 0}) }},
		{"FuseGravity", func() { f.FuseGravity(stationarySample(1)) }},
		{"FuseMag", func() { f.FuseMag(sensors.MagSample{T: 1}) }},
		{"FuseGPS", func() { f.FuseGPS(sensors.GPSSample{T: 1, Valid: true}) }},
		{"NotifySensorSwitch", f.NotifySensorSwitch},
	}
	flushes := f.flushes
	for _, r := range reads {
		step(2)
		want(r.name+" window", 2, flushes)
		r.read()
		flushes++
		want("after "+r.name, 0, flushes)
		// Reading again with no predict in between finds no window.
		r.read()
		want("second "+r.name, 0, flushes)
	}

	// Forcing full rate closes the window and keeps the exact path
	// step-by-step, where nothing accumulates and nothing is flushed.
	step(2)
	f.SetCovarianceFullRate(true)
	flushes++
	want("entering full rate", 0, flushes)
	step(k + 5)
	want("full-rate predicts", 0, flushes)
	f.SetCovarianceFullRate(false)
	step(2)
	want("released", 2, flushes)
}

// TestDecimationSnapshotCarriesWindow: the mid-window accumulator must
// ride a copy of the filter so forked runs resume bit-identically.
func TestDecimationSnapshotCarriesWindow(t *testing.T) {
	f := New(DefaultConfig())
	k := f.cfg.CovarianceDecimation
	const dt = 0.004
	n := k + 2 // the cap closed one window; 2 predicts are pending
	for i := 0; i < n; i++ {
		f.Predict(stationarySample(float64(i)*dt), dt)
	}
	g := f
	if g.pending != 2 || g.pending != f.pending || g.flushes != 1 || g.flushes != f.flushes {
		t.Fatalf("window not copied: pending %d vs %d, flushes %d vs %d", g.pending, f.pending, g.flushes, f.flushes)
	}
	if g.acc != f.acc {
		t.Fatalf("transition accumulator not copied")
	}

	// Continuing both, across a read and the next cap, must stay
	// bit-identical.
	for i := n; i < n+2*k; i++ {
		s := stationarySample(float64(i) * dt)
		f.Predict(s, dt)
		g.Predict(s, dt)
		if i == n+3 {
			f.FuseBaro(sensors.BaroSample{T: s.T})
			g.FuseBaro(sensors.BaroSample{T: s.T})
		}
	}
	if f.p != g.p {
		t.Fatalf("covariance diverged after copy")
	}
	if f.st != g.st {
		t.Fatalf("state diverged after copy")
	}
	if f.flushes != g.flushes {
		t.Fatalf("flush counts diverged after copy: %d vs %d", f.flushes, g.flushes)
	}
}

// TestPredictAllocFree pins the predict hot path at zero allocations per
// op, on both the decimated and the exact covariance path (alloc
// regression guard; the campaign runs this 250 times per sim-second).
func TestPredictAllocFree(t *testing.T) {
	for _, k := range []int{1, DefaultConfig().CovarianceDecimation} {
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
