package sensors

import (
	"fmt"

	"uavres/internal/mathx"
)

// IMUSample is one inertial measurement: body-frame specific force and
// angular rate at simulation time T.
type IMUSample struct {
	// T is the simulation timestamp in seconds.
	T float64
	// Accel is the measured specific force (m/s^2), clipped to ±AccelRange.
	Accel mathx.Vec3
	// Gyro is the measured angular rate (rad/s), clipped to ±GyroRange.
	Gyro mathx.Vec3
}

// IMU models one accelerometer+gyroscope pair with constant per-run bias,
// white noise, and full-scale clipping. It is a plain value: copying an
// IMU copies its noise stream and sample clock.
type IMU struct {
	spec      IMUSpec
	accelBias mathx.Vec3
	gyroBias  mathx.Vec3
	rng       mathx.Rand
	noisy     bool // rng drives bias and noise; false is an ideal sensor
	tick      Ticker
}

// NewIMU returns an IMU drawing from a copy of rng, its biases drawn once
// from it. A nil rng yields an ideal (noise- and bias-free) sensor for
// deterministic tests.
func NewIMU(spec IMUSpec, rng *mathx.Rand) (IMU, error) {
	if err := spec.Validate(); err != nil {
		return IMU{}, err
	}
	imu := IMU{spec: spec, tick: NewTicker(spec.RateHz)}
	if rng != nil {
		imu.rng, imu.noisy = *rng, true
		imu.accelBias = randVec(&imu.rng, spec.AccelBiasStd)
		imu.gyroBias = randVec(&imu.rng, spec.GyroBiasStd)
	}
	return imu, nil
}

// Spec returns the sensor's error model.
func (m *IMU) Spec() IMUSpec { return m.spec }

// Biases returns the per-run constant biases (accel, gyro), used by tests
// and by the EKF's bias-state verification.
func (m *IMU) Biases() (accel, gyro mathx.Vec3) { return m.accelBias, m.gyroBias }

// Due reports whether a new sample is due at sim time t.
func (m *IMU) Due(t float64) bool { return m.tick.Due(t) }

// IMUNoise is one sample's worth of noise deviates for one unit, drawn by
// DrawNoise and composed by SampleWith. Splitting the draw from the
// composition lets the batch runner share one unit's deviates across every
// lockstep fork (the noise is additive to ground truth, so it is
// independent of each fork's diverged state). A unit draws exactly one
// IMUNoise per sample, so a fork's k-th sample consumes the k-th draw
// whenever it falls: the batch shares draws by count, not by tick.
type IMUNoise struct {
	Accel mathx.Vec3
	Gyro  mathx.Vec3
}

// DrawNoise advances the unit's noise stream by exactly one sample's worth
// of deviates and returns them. For a noiseless unit it draws nothing and
// returns zeros.
func (m *IMU) DrawNoise() IMUNoise {
	if !m.noisy {
		return IMUNoise{}
	}
	return IMUNoise{
		Accel: randVec(&m.rng, m.spec.AccelNoiseStd),
		Gyro:  randVec(&m.rng, m.spec.GyroNoiseStd),
	}
}

// SampleWith composes a measurement at time t from ground truth and
// externally drawn noise, bit-identically to Sample: the noise add is
// guarded by the noisy flag exactly as in the fused path, so a noiseless
// unit never perturbs signed zeros.
func (m *IMU) SampleWith(t float64, trueAccel, trueGyro mathx.Vec3, n IMUNoise) IMUSample {
	accel := trueAccel.Add(m.accelBias)
	gyro := trueGyro.Add(m.gyroBias)
	if m.noisy {
		accel = accel.Add(n.Accel)
		gyro = gyro.Add(n.Gyro)
	}
	return IMUSample{
		T:     t,
		Accel: ClipVec(accel, AccelRange),
		Gyro:  ClipVec(gyro, GyroRange),
	}
}

// Sample produces a measurement at time t from true specific force and
// angular rate. It is literally DrawNoise followed by SampleWith, which is
// what makes the batch runner's shared-draw path bit-exact.
func (m *IMU) Sample(t float64, trueAccel, trueGyro mathx.Vec3) IMUSample {
	return m.SampleWith(t, trueAccel, trueGyro, m.DrawNoise())
}

// MaxIMUs bounds the units of a redundant set. PX4 carries three; the
// bound lets the set hold its units in a fixed array, so the set is a
// plain value.
const MaxIMUs = 4

// RedundantIMUs models PX4's multi-IMU arrangement: one primary plus spare
// sensors the failsafe isolation stage can switch to. The paper assumes the
// injected fault affects every redundant sensor, so the set shares one
// ground-truth input; each unit still carries its own bias and noise
// stream.
type RedundantIMUs struct {
	units   [MaxIMUs]IMU
	n       int
	primary int
}

// NewRedundantIMUs creates n IMUs (1 <= n <= MaxIMUs; n < 1 means 1)
// seeded from rng.
func NewRedundantIMUs(n int, spec IMUSpec, rng *mathx.Rand) (RedundantIMUs, error) {
	if n < 1 {
		n = 1
	}
	if n > MaxIMUs {
		return RedundantIMUs{}, fmt.Errorf("sensors: %d IMU units, at most %d", n, MaxIMUs)
	}
	r := RedundantIMUs{n: n}
	for i := 0; i < n; i++ {
		var unitRng *mathx.Rand
		if rng != nil {
			unitRng = rng.Child()
		}
		var err error
		if r.units[i], err = NewIMU(spec, unitRng); err != nil {
			return RedundantIMUs{}, err
		}
	}
	return r, nil
}

// Count returns the number of units in the set.
func (r *RedundantIMUs) Count() int { return r.n }

// Primary returns the index of the currently selected unit.
func (r *RedundantIMUs) Primary() int { return r.primary }

// SwitchPrimary selects the next unit in round-robin order and returns its
// index; the failsafe isolation stage calls this when the current primary
// is declared unhealthy.
func (r *RedundantIMUs) SwitchPrimary() int {
	r.primary = (r.primary + 1) % r.n
	return r.primary
}

// Exhausted reports whether every unit has been tried at least once, i.e.
// switching has wrapped around without finding a healthy sensor.
// The caller tracks switch count; this helper just exposes the set size.
func (r *RedundantIMUs) Exhausted(switches int) bool { return switches >= r.n }

// Due reports whether the primary unit is due to sample at time t.
func (r *RedundantIMUs) Due(t float64) bool { return r.units[r.primary].Due(t) }

// Unit returns unit i for inspection.
func (r *RedundantIMUs) Unit(i int) *IMU { return &r.units[i] }

func randVec(rng *mathx.Rand, std float64) mathx.Vec3 {
	//lint:allow floatcmp zero is the exact noise-disabled sentinel, never a computed value
	if std == 0 {
		return mathx.Zero3
	}
	return mathx.Vec3{
		X: rng.NormFloat64() * std,
		Y: rng.NormFloat64() * std,
		Z: rng.NormFloat64() * std,
	}
}

// SampleAll measures every unit in the set from the same ground truth and
// returns the per-unit samples (index-aligned with Unit). Each unit
// applies its own bias and noise stream.
func (r *RedundantIMUs) SampleAll(t float64, trueAccel, trueGyro mathx.Vec3) []IMUSample {
	return r.SampleAllInto(nil, t, trueAccel, trueGyro)
}

// SampleAllInto is SampleAll writing into dst (grown if needed), letting
// the 250 Hz sim loop reuse one buffer instead of allocating per sample.
func (r *RedundantIMUs) SampleAllInto(dst []IMUSample, t float64, trueAccel, trueGyro mathx.Vec3) []IMUSample {
	if cap(dst) < r.n {
		dst = make([]IMUSample, r.n)
	}
	dst = dst[:r.n]
	for i := range dst {
		dst[i] = r.units[i].Sample(t, trueAccel, trueGyro)
	}
	return dst
}

// DrawNoiseInto draws one tick's noise for every unit in set order into
// dst (grown if needed), advancing each unit's stream exactly as
// SampleAllInto would.
func (r *RedundantIMUs) DrawNoiseInto(dst []IMUNoise) []IMUNoise {
	if cap(dst) < r.n {
		dst = make([]IMUNoise, r.n)
	}
	dst = dst[:r.n]
	for i := range dst {
		dst[i] = r.units[i].DrawNoise()
	}
	return dst
}

// SampleAllWith is SampleAllInto composing externally drawn noise
// (index-aligned with DrawNoiseInto's output) instead of advancing the
// units' own streams.
func (r *RedundantIMUs) SampleAllWith(dst []IMUSample, t float64, trueAccel, trueGyro mathx.Vec3, noise []IMUNoise) []IMUSample {
	if cap(dst) < r.n {
		dst = make([]IMUSample, r.n)
	}
	dst = dst[:r.n]
	for i := range dst {
		dst[i] = r.units[i].SampleWith(t, trueAccel, trueGyro, noise[i])
	}
	return dst
}

// SamplePrimaryWith composes only the primary unit's sample from its slot
// of noise (index-aligned with DrawNoiseInto's output), bit-identical to
// SampleAllWith's primary slot. A fault that overwrites every unit leaves
// nothing of the other units' samples to read, so the sim loop composes
// this one alone; the draws of every unit must still be taken.
func (r *RedundantIMUs) SamplePrimaryWith(t float64, trueAccel, trueGyro mathx.Vec3, noise []IMUNoise) IMUSample {
	return r.units[r.primary].SampleWith(t, trueAccel, trueGyro, noise[r.primary])
}

// voteMaxUnits bounds the stack scratch in VoteOutlier; real vehicles carry
// 3-4 redundant IMUs.
const voteMaxUnits = 8

// VoteOutlier reports whether the unit at index primary disagrees with the
// per-axis median of all units by more than the tolerances — the
// cross-IMU consistency check redundancy management runs every sample.
// With fewer than three units a majority cannot be formed and the vote
// always passes. Runs allocation-free for up to voteMaxUnits units.
func VoteOutlier(samples []IMUSample, primary int, accelTol, gyroTol float64) bool {
	n := len(samples)
	if n < 3 || primary < 0 || primary >= n {
		return false
	}
	p := &samples[primary]
	if n == 3 {
		// The common fleet (PX4 carries 3 IMUs) takes a branch-only
		// median per axis, fully unrolled: same value the sort below
		// selects, no scratch writes, no per-axis indexing switch.
		s0, s1, s2 := &samples[0], &samples[1], &samples[2]
		if d := p.Accel.X - med3(s0.Accel.X, s1.Accel.X, s2.Accel.X); d > accelTol || d < -accelTol {
			return true
		}
		if d := p.Accel.Y - med3(s0.Accel.Y, s1.Accel.Y, s2.Accel.Y); d > accelTol || d < -accelTol {
			return true
		}
		if d := p.Accel.Z - med3(s0.Accel.Z, s1.Accel.Z, s2.Accel.Z); d > accelTol || d < -accelTol {
			return true
		}
		if d := p.Gyro.X - med3(s0.Gyro.X, s1.Gyro.X, s2.Gyro.X); d > gyroTol || d < -gyroTol {
			return true
		}
		if d := p.Gyro.Y - med3(s0.Gyro.Y, s1.Gyro.Y, s2.Gyro.Y); d > gyroTol || d < -gyroTol {
			return true
		}
		if d := p.Gyro.Z - med3(s0.Gyro.Z, s1.Gyro.Z, s2.Gyro.Z); d > gyroTol || d < -gyroTol {
			return true
		}
		return false
	}
	var scratch [voteMaxUnits]float64
	vals := scratch[:0]
	if n > voteMaxUnits {
		vals = make([]float64, 0, n)
	}
	for axis := 0; axis < 6; axis++ {
		vals = vals[:n]
		for i := range samples {
			vals[i] = sampleAxis(&samples[i], axis)
		}
		// Insertion sort: the set is tiny (3-4 units).
		for i := 1; i < n; i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		med := vals[n/2]
		tol := accelTol
		if axis >= 3 {
			tol = gyroTol
		}
		if diff := sampleAxis(p, axis) - med; diff > tol || diff < -tol {
			return true
		}
	}
	return false
}

// med3 returns the median of three values (the n==3 special case of the
// sorted-middle the general vote path computes).
func med3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// sampleAxis indexes the six measured scalars: accel XYZ then gyro XYZ.
func sampleAxis(s *IMUSample, axis int) float64 {
	switch axis {
	case 0:
		return s.Accel.X
	case 1:
		return s.Accel.Y
	case 2:
		return s.Accel.Z
	case 3:
		return s.Gyro.X
	case 4:
		return s.Gyro.Y
	default:
		return s.Gyro.Z
	}
}
