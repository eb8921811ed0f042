package mathx

import "math"

// LowPass is a first-order discrete low-pass filter (exponential smoothing)
// parameterized by cutoff frequency. The zero value passes input through
// until Init or the first Update fixes the state.
type LowPass struct {
	alpha   float64
	state   float64
	primed  bool
	cutHz   float64
	stepSec float64
}

// NewLowPass returns a low-pass filter with the given cutoff frequency (Hz)
// for samples arriving every dt seconds. A non-positive cutoff disables
// filtering (the filter becomes a pass-through).
func NewLowPass(cutoffHz, dt float64) *LowPass {
	lp := &LowPass{cutHz: cutoffHz, stepSec: dt}
	lp.alpha = lowPassAlpha(cutoffHz, dt)
	return lp
}

func lowPassAlpha(cutoffHz, dt float64) float64 {
	if cutoffHz <= 0 || dt <= 0 {
		return 1
	}
	rc := 1 / (2 * math.Pi * cutoffHz)
	return dt / (rc + dt)
}

// Init seeds the filter state.
func (lp *LowPass) Init(x float64) {
	lp.state = x
	lp.primed = true
}

// Update feeds one sample and returns the filtered value.
func (lp *LowPass) Update(x float64) float64 {
	if !lp.primed {
		lp.Init(x)
		return x
	}
	lp.state += lp.alpha * (x - lp.state)
	return lp.state
}

// Value returns the current filtered value.
func (lp *LowPass) Value() float64 { return lp.state }

// LowPass3 filters a Vec3 component-wise with a shared cutoff.
type LowPass3 struct {
	x, y, z LowPass
}

// NewLowPass3 returns a vector low-pass filter; see NewLowPass.
func NewLowPass3(cutoffHz, dt float64) *LowPass3 {
	a := lowPassAlpha(cutoffHz, dt)
	return &LowPass3{
		x: LowPass{alpha: a, cutHz: cutoffHz, stepSec: dt},
		y: LowPass{alpha: a, cutHz: cutoffHz, stepSec: dt},
		z: LowPass{alpha: a, cutHz: cutoffHz, stepSec: dt},
	}
}

// Init seeds the filter state.
func (lp *LowPass3) Init(v Vec3) {
	lp.x.Init(v.X)
	lp.y.Init(v.Y)
	lp.z.Init(v.Z)
}

// Update feeds one sample and returns the filtered vector.
func (lp *LowPass3) Update(v Vec3) Vec3 {
	return Vec3{lp.x.Update(v.X), lp.y.Update(v.Y), lp.z.Update(v.Z)}
}

// Value returns the current filtered vector.
func (lp *LowPass3) Value() Vec3 { return Vec3{lp.x.Value(), lp.y.Value(), lp.z.Value()} }

// Derivative estimates a signal's time derivative with a low-pass smoothed
// finite difference, the standard D-term implementation in flight
// controllers (avoids amplifying sensor noise).
type Derivative struct {
	lp   LowPass
	prev float64
	dt   float64
	seen bool
}

// NewDerivative returns a derivative estimator for samples every dt
// seconds, smoothed at cutoffHz.
func NewDerivative(cutoffHz, dt float64) *Derivative {
	return &Derivative{lp: LowPass{alpha: lowPassAlpha(cutoffHz, dt)}, dt: dt}
}

// Update feeds one sample and returns the smoothed derivative.
func (d *Derivative) Update(x float64) float64 {
	if !d.seen {
		d.prev = x
		d.seen = true
		return 0
	}
	raw := (x - d.prev) / d.dt
	d.prev = x
	return d.lp.Update(raw)
}

// Reset clears the estimator state.
func (d *Derivative) Reset() {
	d.seen = false
	d.lp.primed = false
	d.lp.state = 0
}

// RateLimiter limits the slew rate of a signal to maxRatePerSec.
type RateLimiter struct {
	max   float64
	dt    float64
	state float64
	seen  bool
}

// NewRateLimiter returns a slew-rate limiter for samples every dt seconds.
func NewRateLimiter(maxRatePerSec, dt float64) *RateLimiter {
	return &RateLimiter{max: maxRatePerSec, dt: dt}
}

// Update feeds the desired value and returns the slew-limited value.
func (r *RateLimiter) Update(x float64) float64 {
	if !r.seen {
		r.state = x
		r.seen = true
		return x
	}
	maxStep := r.max * r.dt
	r.state += Clamp(x-r.state, -maxStep, maxStep)
	return r.state
}
