package sensors

import "uavres/internal/mathx"

// GPSSample is one position/velocity fix in the local NED frame.
type GPSSample struct {
	// T is the simulation timestamp in seconds.
	T float64
	// PosNED is the measured position (m).
	PosNED mathx.Vec3
	// VelNED is the measured velocity (m/s).
	VelNED mathx.Vec3
	// Valid is false when the receiver has no fix.
	Valid bool
}

// GPS models a GNSS receiver reporting local-frame position and velocity.
type GPS struct {
	spec  GPSSpec
	rng   mathx.Rand
	noisy bool // rng drives the noise; false is an ideal sensor
	tick  Ticker
}

// NewGPS returns a receiver model drawing from a copy of rng; a nil rng
// yields an ideal sensor.
func NewGPS(spec GPSSpec, rng *mathx.Rand) GPS {
	g := GPS{spec: spec, tick: NewTicker(spec.RateHz)}
	if rng != nil {
		g.rng, g.noisy = *rng, true
	}
	return g
}

// Due reports whether a fix is due at sim time t.
func (g *GPS) Due(t float64) bool { return g.tick.Due(t) }

// GPSNoise is one fix's worth of noise deviates, drawn by DrawNoise and
// composed by SampleWith (the batch runner shares one draw across forks).
type GPSNoise struct {
	Pos mathx.Vec3
	Vel mathx.Vec3
}

// DrawNoise advances the receiver's noise stream by one fix's worth of
// deviates, in Sample's exact draw order.
func (g *GPS) DrawNoise() GPSNoise {
	if !g.noisy {
		return GPSNoise{}
	}
	return GPSNoise{
		Pos: mathx.Vec3{
			X: g.rng.NormFloat64() * g.spec.PosNoiseStdM,
			Y: g.rng.NormFloat64() * g.spec.PosNoiseStdM,
			Z: g.rng.NormFloat64() * g.spec.AltNoiseStdM,
		},
		Vel: randVec(&g.rng, g.spec.VelNoiseStd),
	}
}

// SampleWith composes a fix from ground truth and externally drawn noise,
// bit-identically to Sample.
func (g *GPS) SampleWith(t float64, truePos, trueVel mathx.Vec3, n GPSNoise) GPSSample {
	pos, vel := truePos, trueVel
	if g.noisy {
		pos = pos.Add(n.Pos)
		vel = vel.Add(n.Vel)
	}
	return GPSSample{T: t, PosNED: pos, VelNED: vel, Valid: true}
}

// Sample produces a fix from true position and velocity.
func (g *GPS) Sample(t float64, truePos, trueVel mathx.Vec3) GPSSample {
	return g.SampleWith(t, truePos, trueVel, g.DrawNoise())
}

// BaroSample is one barometric altitude measurement.
type BaroSample struct {
	// T is the simulation timestamp in seconds.
	T float64
	// AltM is the measured altitude above the local origin (positive up).
	AltM float64
}

// Baro models a barometric altimeter.
type Baro struct {
	spec  BaroSpec
	bias  float64
	rng   mathx.Rand
	noisy bool // rng drives bias and noise; false is an ideal sensor
	tick  Ticker
}

// NewBaro returns a barometer drawing from a copy of rng, its constant
// bias drawn once from it; a nil rng yields an ideal sensor.
func NewBaro(spec BaroSpec, rng *mathx.Rand) Baro {
	b := Baro{spec: spec, tick: NewTicker(spec.RateHz)}
	if rng != nil {
		b.rng, b.noisy = *rng, true
		b.bias = b.rng.NormFloat64() * spec.BiasStdM
	}
	return b
}

// Due reports whether a sample is due at sim time t.
func (b *Baro) Due(t float64) bool { return b.tick.Due(t) }

// DrawNoise advances the barometer's noise stream by one sample's deviate.
func (b *Baro) DrawNoise() float64 {
	if !b.noisy {
		return 0
	}
	return b.rng.NormFloat64() * b.spec.AltNoiseStdM
}

// SampleWith composes a measurement from the true altitude and an
// externally drawn noise term, bit-identically to Sample.
func (b *Baro) SampleWith(t, trueAltM, noise float64) BaroSample {
	alt := trueAltM + b.bias
	if b.noisy {
		alt += noise
	}
	return BaroSample{T: t, AltM: alt}
}

// Sample produces a measurement from the true altitude (positive up).
func (b *Baro) Sample(t, trueAltM float64) BaroSample {
	return b.SampleWith(t, trueAltM, b.DrawNoise())
}

// MagSample is one magnetometer-derived heading measurement.
type MagSample struct {
	// T is the simulation timestamp in seconds.
	T float64
	// YawRad is the measured heading (rad), derived from the field vector.
	YawRad float64
}

// Mag models a magnetometer as a heading reference. The paper's fault
// model deliberately excludes the magnetometer as an injection target, but
// the vehicle still carries one — PX4 would not hold yaw without it — so
// it is modelled here and never routed through the fault injector.
type Mag struct {
	spec  MagSpec
	bias  float64
	rng   mathx.Rand
	noisy bool // rng drives bias and noise; false is an ideal sensor
	tick  Ticker
}

// MagSpec describes the heading-reference error model.
type MagSpec struct {
	// YawNoiseStd is the per-sample heading noise (rad).
	YawNoiseStd float64
	// BiasStd is the constant per-run heading bias (soft-iron/declination
	// residual, rad).
	BiasStd float64
	// RateHz is the sample rate.
	RateHz float64
}

// DefaultMagSpec returns a calibrated consumer magnetometer model.
func DefaultMagSpec() MagSpec {
	return MagSpec{YawNoiseStd: 0.03, BiasStd: 0.02, RateHz: 10}
}

// NewMag returns a magnetometer drawing from a copy of rng, its constant
// bias drawn once from it; a nil rng yields an ideal sensor.
func NewMag(spec MagSpec, rng *mathx.Rand) Mag {
	m := Mag{spec: spec, tick: NewTicker(spec.RateHz)}
	if rng != nil {
		m.rng, m.noisy = *rng, true
		m.bias = m.rng.NormFloat64() * spec.BiasStd
	}
	return m
}

// Due reports whether a sample is due at sim time t.
func (m *Mag) Due(t float64) bool { return m.tick.Due(t) }

// DrawNoise advances the magnetometer's noise stream by one sample's
// deviate.
func (m *Mag) DrawNoise() float64 {
	if !m.noisy {
		return 0
	}
	return m.rng.NormFloat64() * m.spec.YawNoiseStd
}

// SampleWith composes a heading measurement from the true yaw and an
// externally drawn noise term, bit-identically to Sample.
func (m *Mag) SampleWith(t, trueYawRad, noise float64) MagSample {
	yaw := trueYawRad + m.bias
	if m.noisy {
		yaw += noise
	}
	return MagSample{T: t, YawRad: yaw}
}

// Sample produces a heading measurement from the true yaw.
func (m *Mag) Sample(t, trueYawRad float64) MagSample {
	return m.SampleWith(t, trueYawRad, m.DrawNoise())
}
