package physics

import (
	"math"

	"uavres/internal/mathx"
)

// Wind models the air-mass motion as a constant mean wind plus
// first-order Gauss-Markov gusts (a discrete Ornstein-Uhlenbeck process
// per axis), a standard light-turbulence approximation of the Dryden
// model. All velocities are in the world NED frame. A Wind is a plain
// value: copying it copies the gust state and its random stream.
type Wind struct {
	// MeanNED is the steady wind velocity.
	MeanNED mathx.Vec3
	// GustStd is the standard deviation of the stationary gust process.
	GustStd float64
	// GustTau is the gust correlation time constant (s).
	GustTau float64

	gust  mathx.Vec3
	rng   mathx.Rand
	noisy bool // rng drives the gusts; false is a gust-free model

	// Cached OU discretization constants, keyed on the exact inputs that
	// produced them. The 500 Hz step loop always passes the same dt, so
	// the Exp/Sqrt pair is computed once per flight instead of per step.
	cacheDt, cacheTau, cacheStd float64
	phi, sigma                  float64
}

// NewWind returns a wind model driven by a copy of the given random
// source. A nil rng produces a deterministic, gust-free model.
func NewWind(meanNED mathx.Vec3, gustStd, gustTau float64, rng *mathx.Rand) *Wind {
	if gustTau <= 0 {
		gustTau = 1
	}
	w := &Wind{MeanNED: meanNED, GustStd: gustStd, GustTau: gustTau}
	if rng != nil {
		w.rng, w.noisy = *rng, true
	}
	return w
}

// CalmWind returns a zero-wind model (used by deterministic tests).
func CalmWind() *Wind { return &Wind{GustTau: 1} }

// Step advances the gust process by dt seconds and returns the current
// total wind velocity.
func (w *Wind) Step(dt float64) mathx.Vec3 {
	if w.noisy && w.GustStd > 0 {
		// Exact discretization of the OU process keeps the stationary
		// variance independent of dt.
		//lint:allow floatcmp cache key is the exact previous inputs; any change recomputes
		if dt != w.cacheDt || w.GustTau != w.cacheTau || w.GustStd != w.cacheStd {
			w.cacheDt, w.cacheTau, w.cacheStd = dt, w.GustTau, w.GustStd
			w.phi = math.Exp(-dt / w.GustTau)
			w.sigma = w.GustStd * math.Sqrt(1-w.phi*w.phi)
		}
		phi, sigma := w.phi, w.sigma
		w.gust = mathx.Vec3{
			X: phi*w.gust.X + sigma*w.rng.NormFloat64(),
			Y: phi*w.gust.Y + sigma*w.rng.NormFloat64(),
			Z: phi*w.gust.Z + sigma*0.3*w.rng.NormFloat64(), // vertical gusts are weaker
		}
	}
	return w.MeanNED.Add(w.gust)
}

// Current returns the wind velocity without advancing the process.
func (w *Wind) Current() mathx.Vec3 { return w.MeanNED.Add(w.gust) }
