package sensors

import (
	"math"
	"testing"

	"uavres/internal/mathx"
	"uavres/internal/physics"
)

func TestIMUSpecValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*IMUSpec)
		ok     bool
	}{
		{"default", func(*IMUSpec) {}, true},
		{"zero_rate", func(s *IMUSpec) { s.RateHz = 0 }, false},
		{"neg_noise", func(s *IMUSpec) { s.AccelNoiseStd = -1 }, false},
		{"neg_gyro_bias", func(s *IMUSpec) { s.GyroBiasStd = -0.1 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := DefaultIMUSpec()
			tt.mutate(&s)
			if err := s.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestIdealIMUIsExact(t *testing.T) {
	imu, err := NewIMU(DefaultIMUSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := mathx.V3(0.1, -0.2, -9.8)
	g := mathx.V3(0.01, 0.02, -0.03)
	s := imu.Sample(1.5, a, g)
	if s.Accel != a || s.Gyro != g || s.T != 1.5 {
		t.Errorf("ideal IMU distorted sample: %+v", s)
	}
	if imu.Last() != s {
		t.Error("Last() does not match most recent sample")
	}
}

func TestIMUClipping(t *testing.T) {
	imu, err := NewIMU(DefaultIMUSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := imu.Sample(0, mathx.V3(1e6, -1e6, 0), mathx.V3(-1e6, 0, 1e6))
	if s.Accel.X != AccelRange || s.Accel.Y != -AccelRange {
		t.Errorf("accel not clipped: %v", s.Accel)
	}
	if s.Gyro.X != -GyroRange || s.Gyro.Z != GyroRange {
		t.Errorf("gyro not clipped: %v", s.Gyro)
	}
}

func TestIMURanges(t *testing.T) {
	// ±16 g and ±2000 deg/s, the ranges the Min/Max faults inject.
	if math.Abs(AccelRange-16*physics.Gravity) > 1e-9 {
		t.Errorf("AccelRange = %v", AccelRange)
	}
	if math.Abs(GyroRange-mathx.Deg2Rad(2000)) > 1e-6 {
		t.Errorf("GyroRange = %v, want %v", GyroRange, mathx.Deg2Rad(2000))
	}
}

func TestIMUNoiseStatistics(t *testing.T) {
	spec := DefaultIMUSpec()
	imu, err := NewIMU(spec, mathx.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	var ax mathx.Running
	for i := 0; i < 20000; i++ {
		s := imu.Sample(float64(i)*0.004, mathx.Zero3, mathx.Zero3)
		ax.Add(s.Accel.X)
	}
	accelBias, _ := imu.Biases()
	if math.Abs(ax.Mean()-accelBias.X) > 0.005 {
		t.Errorf("accel X mean %v, want bias %v", ax.Mean(), accelBias.X)
	}
	if math.Abs(ax.Std()-spec.AccelNoiseStd) > 0.01 {
		t.Errorf("accel X std %v, want %v", ax.Std(), spec.AccelNoiseStd)
	}
}

func TestIMUBiasIsConstantPerRun(t *testing.T) {
	imu, err := NewIMU(DefaultIMUSpec(), mathx.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	a1, g1 := imu.Biases()
	imu.Sample(0, mathx.Zero3, mathx.Zero3)
	a2, g2 := imu.Biases()
	if a1 != a2 || g1 != g2 {
		t.Error("bias changed between samples")
	}
	if a1 == mathx.Zero3 && g1 == mathx.Zero3 {
		t.Error("seeded IMU has exactly zero bias (suspicious)")
	}
}

func TestTickerSchedule(t *testing.T) {
	tk := NewTicker(10) // every 0.1 s
	fires := 0
	for i := 0; i <= 100; i++ { // t = 0..1.0 in 10 ms steps
		if tk.Due(float64(i) * 0.01) {
			fires++
		}
	}
	if fires != 11 { // t=0.0, 0.1, ..., 1.0
		t.Errorf("fires = %d, want 11", fires)
	}
}

func TestTickerNoBurstAfterGap(t *testing.T) {
	tk := NewTicker(100)
	if !tk.Due(0) {
		t.Fatal("no fire at t=0")
	}
	// Jump far ahead: exactly one catch-up fire, then normal cadence.
	if !tk.Due(5.0) {
		t.Error("no fire after gap")
	}
	if tk.Due(5.001) {
		t.Error("burst fire right after catch-up")
	}
	if !tk.Due(5.011) {
		t.Error("normal cadence not resumed")
	}
}

func TestTickerZeroRate(t *testing.T) {
	tk := NewTicker(0)
	if tk.Period() != 1 {
		t.Errorf("zero-rate ticker period = %v, want fallback 1s", tk.Period())
	}
}

func TestIMUDueFollowsRate(t *testing.T) {
	spec := DefaultIMUSpec()
	spec.RateHz = 250
	imu, err := NewIMU(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	fires := 0
	for i := 0; i < 1000; i++ { // 2 s at 2 ms steps
		if imu.Due(float64(i) * 0.002) {
			fires++
		}
	}
	if fires < 498 || fires > 502 {
		t.Errorf("fires in 2 s at 250 Hz = %d, want ~500", fires)
	}
}

func TestRedundantIMUsSwitching(t *testing.T) {
	set, err := NewRedundantIMUs(3, DefaultIMUSpec(), mathx.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 3 || set.Primary() != 0 {
		t.Fatalf("initial state: count=%d primary=%d", set.Count(), set.Primary())
	}
	if got := set.SwitchPrimary(); got != 1 {
		t.Errorf("first switch = %d, want 1", got)
	}
	if got := set.SwitchPrimary(); got != 2 {
		t.Errorf("second switch = %d, want 2", got)
	}
	if got := set.SwitchPrimary(); got != 0 {
		t.Errorf("third switch wraps to %d, want 0", got)
	}
	if !set.Exhausted(3) || set.Exhausted(2) {
		t.Error("Exhausted threshold wrong")
	}
}

func TestRedundantIMUsDistinctBiases(t *testing.T) {
	set, err := NewRedundantIMUs(3, DefaultIMUSpec(), mathx.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	a0, _ := set.Unit(0).Biases()
	a1, _ := set.Unit(1).Biases()
	if a0 == a1 {
		t.Error("redundant units share identical bias (should be independent)")
	}
}

func TestRedundantIMUsMinimumOne(t *testing.T) {
	set, err := NewRedundantIMUs(0, DefaultIMUSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 1 {
		t.Errorf("count = %d, want clamped to 1", set.Count())
	}
}

func TestGPSIdealAndNoisy(t *testing.T) {
	ideal := NewGPS(DefaultGPSSpec(), nil)
	pos, vel := mathx.V3(10, 20, -30), mathx.V3(1, 2, 3)
	s := ideal.Sample(2, pos, vel)
	if s.PosNED != pos || s.VelNED != vel || !s.Valid {
		t.Errorf("ideal GPS distorted: %+v", s)
	}

	noisy := NewGPS(DefaultGPSSpec(), mathx.NewRand(4))
	var errStats mathx.Running
	for i := 0; i < 5000; i++ {
		m := noisy.Sample(float64(i)*0.2, pos, vel)
		errStats.Add(m.PosNED.X - pos.X)
	}
	if math.Abs(errStats.Std()-DefaultGPSSpec().PosNoiseStdM) > 0.05 {
		t.Errorf("GPS pos noise std %v, want %v", errStats.Std(), DefaultGPSSpec().PosNoiseStdM)
	}
}

func TestBaroBiasAndNoise(t *testing.T) {
	b := NewBaro(DefaultBaroSpec(), mathx.NewRand(6))
	var stats mathx.Running
	for i := 0; i < 5000; i++ {
		stats.Add(b.Sample(float64(i)*0.04, 50).AltM)
	}
	// Mean = 50 + bias, and bias is bounded in probability by ~4 sigma.
	if math.Abs(stats.Mean()-50) > 4*DefaultBaroSpec().BiasStdM {
		t.Errorf("baro mean %v too far from 50", stats.Mean())
	}
	if math.Abs(stats.Std()-DefaultBaroSpec().AltNoiseStdM) > 0.02 {
		t.Errorf("baro noise std %v, want %v", stats.Std(), DefaultBaroSpec().AltNoiseStdM)
	}
}

func TestBaroIdeal(t *testing.T) {
	b := NewBaro(DefaultBaroSpec(), nil)
	if got := b.Sample(0, 12.5).AltM; got != 12.5 {
		t.Errorf("ideal baro = %v, want 12.5", got)
	}
}

func TestSampleAllPerUnitStreams(t *testing.T) {
	set, err := NewRedundantIMUs(3, DefaultIMUSpec(), mathx.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	all := set.SampleAll(1, mathx.V3(0, 0, -9.8), mathx.Zero3)
	if len(all) != 3 {
		t.Fatalf("samples = %d", len(all))
	}
	if all[0].Accel == all[1].Accel {
		t.Error("units produced identical noisy samples")
	}
	for i, s := range all {
		if s.T != 1 {
			t.Errorf("unit %d timestamp %v", i, s.T)
		}
		if set.Unit(i).Last() != s {
			t.Errorf("unit %d Last() mismatch", i)
		}
	}
}

func TestVoteOutlierDetectsBadPrimary(t *testing.T) {
	healthy := IMUSample{Accel: mathx.V3(0.01, 0, -9.8), Gyro: mathx.V3(0.01, 0, 0)}
	healthy2 := IMUSample{Accel: mathx.V3(-0.02, 0.03, -9.75), Gyro: mathx.V3(0, 0.005, 0)}
	bad := IMUSample{Accel: mathx.V3(0, 0, -9.8), Gyro: mathx.V3(-20, 5, 3)}

	if !VoteOutlier([]IMUSample{bad, healthy, healthy2}, 0, 3, 0.3) {
		t.Error("corrupted primary not voted out")
	}
	if VoteOutlier([]IMUSample{bad, healthy, healthy2}, 1, 3, 0.3) {
		t.Error("healthy primary voted out against corrupted minority")
	}
}

func TestVoteOutlierToleratesSensorSpread(t *testing.T) {
	// Normal bias/noise differences stay inside the tolerances.
	a := IMUSample{Accel: mathx.V3(0.05, -0.04, -9.82), Gyro: mathx.V3(0.004, -0.002, 0.001)}
	b := IMUSample{Accel: mathx.V3(-0.03, 0.06, -9.78), Gyro: mathx.V3(-0.003, 0.004, -0.002)}
	c := IMUSample{Accel: mathx.V3(0.01, 0.01, -9.80), Gyro: mathx.V3(0.001, 0.001, 0.003)}
	for p := 0; p < 3; p++ {
		if VoteOutlier([]IMUSample{a, b, c}, p, 3, 0.3) {
			t.Errorf("nominal spread voted out primary %d", p)
		}
	}
}

func TestVoteOutlierNeedsMajority(t *testing.T) {
	bad := IMUSample{Gyro: mathx.V3(-30, 0, 0)}
	ok := IMUSample{}
	if VoteOutlier([]IMUSample{bad, ok}, 0, 3, 0.3) {
		t.Error("two units cannot form a majority")
	}
	if VoteOutlier([]IMUSample{bad}, 0, 3, 0.3) {
		t.Error("single unit voted against itself")
	}
	if VoteOutlier([]IMUSample{bad, ok, ok}, 5, 3, 0.3) {
		t.Error("out-of-range primary index accepted")
	}
}

func TestVoteOutlierAllCorruptedAgree(t *testing.T) {
	// The paper's all-units assumption: every unit reads the same
	// corrupted values, so no outlier exists and voting stays silent.
	bad := IMUSample{Gyro: mathx.V3(-GyroRange, -GyroRange, -GyroRange)}
	if VoteOutlier([]IMUSample{bad, bad, bad}, 0, 3, 0.3) {
		t.Error("identical corrupted units flagged an outlier")
	}
}

func TestMagIdealAndBiased(t *testing.T) {
	ideal := NewMag(DefaultMagSpec(), nil)
	if got := ideal.Sample(0, 1.25).YawRad; got != 1.25 {
		t.Errorf("ideal mag yaw = %v", got)
	}

	biased := NewMag(DefaultMagSpec(), mathx.NewRand(11))
	var stats mathx.Running
	for i := 0; i < 5000; i++ {
		stats.Add(biased.Sample(float64(i)*0.1, 0.5).YawRad)
	}
	if math.Abs(stats.Mean()-0.5) > 4*DefaultMagSpec().BiasStd {
		t.Errorf("mag mean %v too far from 0.5", stats.Mean())
	}
	if math.Abs(stats.Std()-DefaultMagSpec().YawNoiseStd) > 0.01 {
		t.Errorf("mag noise std %v, want %v", stats.Std(), DefaultMagSpec().YawNoiseStd)
	}
}

func TestMagRate(t *testing.T) {
	mag := NewMag(DefaultMagSpec(), nil)
	fires := 0
	for i := 0; i < 1000; i++ { // 4 s at 4 ms
		if mag.Due(float64(i) * 0.004) {
			fires++
		}
	}
	if fires < 39 || fires > 42 { // 10 Hz over 4 s
		t.Errorf("mag fires = %d, want ~40", fires)
	}
}

// TestSampleVoteAllocFree pins the 250 Hz sensing step — sampling all
// three redundant units into a reused buffer plus the cross-unit vote —
// at zero allocations per op.
func TestSampleVoteAllocFree(t *testing.T) {
	imus, err := NewRedundantIMUs(3, DefaultIMUSpec(), mathx.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]IMUSample, 0, 3)
	accel := mathx.V3(0, 0, -physics.Gravity)
	gyro := mathx.V3(0.01, -0.02, 0.005)
	now := 0.0
	if n := testing.AllocsPerRun(100, func() {
		all := imus.SampleAllInto(buf, now, accel, gyro)
		_ = VoteOutlier(all, imus.Primary(), 3, 0.3)
		now += 0.004
	}); n != 0 {
		t.Errorf("SampleAllInto + VoteOutlier allocates %v per op, want 0", n)
	}
}
