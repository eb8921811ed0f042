// Package mitigation implements the software-based fault-tolerance
// mechanisms the paper's discussion section calls for ("software-based
// mitigation techniques in addition to hardware redundancies"): filters
// that sit on the IMU stream between the (possibly faulty) sensor and its
// consumers, plus a stuck-output detector that feeds the failsafe monitor.
//
// Each filter is deployable in a real flight stack: none requires ground
// truth, all operate sample-by-sample with bounded memory, and the whole
// pipeline adds nanoseconds per sample (see BenchmarkMicroMitigation).
package mitigation

import (
	"fmt"

	"uavres/internal/mathx"
	"uavres/internal/sensors"
)

// Config selects and parameterizes the pipeline stages. The zero value
// disables everything (no mitigation — the paper's baseline).
type Config struct {
	// GyroClampRad enables the gyro plausibility clamp when positive:
	// the airframe cannot physically rotate faster than this (rad/s),
	// so readings beyond it are saturated. A small quad's achievable
	// rate is ~8-12 rad/s; the sensor range is 35 rad/s.
	GyroClampRad float64
	// MedianWindow enables the per-axis spike-median filter when >= 3
	// (odd; even values are rounded up; at most 5). It removes isolated
	// outliers at the cost of half-a-window delay.
	MedianWindow int
	// StuckWindow enables the stuck-output guard when >= 2: that many
	// identical consecutive samples on any sensor raise StuckDetected.
	// Real MEMS output is noisy, so exact repetition is a hardware or
	// injection signature (the paper's Freeze and Zeros classes).
	StuckWindow int
	// LowPassHz enables a first-order low-pass on both sensors when
	// positive — a noise-suppression stage (median filters remove spikes
	// but pass white noise). DISABLED by default: campaign evaluation
	// showed it can MASK a noisy-gyro fault from the failsafe's rate
	// threshold without restoring controllability, converting controlled
	// terminations into crashes (see BenchmarkMitigation and DESIGN.md
	// section 8). Enable only together with detection running on the raw
	// stream.
	LowPassHz float64
	// SampleRateHz is the IMU stream rate the low-pass is designed for
	// (default 250 when zero).
	SampleRateHz float64

	// The rotor-FDI fields below are opt-in (spec override rotor_reconfig)
	// and carry `json:",omitempty"`: Config is part of the spec
	// fingerprint, so their zero values must mean "disabled, legacy
	// behavior" or every stored result key changes.

	// RotorFDIWindow enables the per-rotor FDI monitor when >= 1: that
	// many consecutive control cycles with the measured rotor state
	// outside RotorFDITol of the expected motor-lag model condemn the
	// rotor.
	RotorFDIWindow int `json:",omitempty"`
	// RotorFDITol is the normalized rotor-state residual tolerance
	// (default DefaultRotorFDITol when zero). The healthy residual is
	// ~1e-16 — the monitor replays the body's exact lag integration — so
	// the tolerance only has to stay below the fault signatures.
	RotorFDITol float64 `json:",omitempty"`
	// ReconfigAllocation, with the monitor enabled, re-solves the control
	// allocation (condemned-rotor zeroing + damped pseudo-inverse) when a
	// rotor is condemned.
	ReconfigAllocation bool `json:",omitempty"`
	// OppositeDerate is the allocation weight assigned to a condemned
	// rotor's diametric partner, in [0, 1]. The zero value shuts the
	// partner down entirely — full pair condemnation, the classic
	// coplanar-multirotor strategy: removing an opposite pair restores
	// the zero-sum column symmetry the allocation needs for balanced
	// bidirectional torque authority (on a one-out hexa the minimum-norm
	// solve parks the partner at zero thrust anyway, so condemning it
	// costs nothing and removes a rotor the solver can only command
	// negatively). Set to 1 to leave the partner untouched.
	OppositeDerate float64 `json:",omitempty"`
}

// Rotor-FDI defaults installed by the spec-level rotor_reconfig override.
const (
	// DefaultRotorFDIWindow condemns after 5 consecutive anomalous
	// control cycles (20 ms at 250 Hz).
	DefaultRotorFDIWindow = 5
	// DefaultRotorFDITol is the normalized rotor-state residual that
	// counts as anomalous.
	DefaultRotorFDITol = 0.15
)

// RotorFDIEnabled reports whether the per-rotor FDI monitor is active.
func (c Config) RotorFDIEnabled() bool { return c.RotorFDIWindow >= 1 }

// RotorDefaults returns c with the rotor-FDI stack enabled at its default
// tuning (what the spec-level rotor_reconfig override installs).
func (c Config) RotorDefaults() Config {
	c.RotorFDIWindow = DefaultRotorFDIWindow
	c.RotorFDITol = DefaultRotorFDITol
	c.ReconfigAllocation = true
	return c
}

// DefaultConfig returns the evaluated mitigation stack.
func DefaultConfig() Config {
	return Config{
		GyroClampRad: 10,
		MedianWindow: 5,
		StuckWindow:  25, // 100 ms at 250 Hz
	}
}

// Enabled reports whether any stage is active.
func (c Config) Enabled() bool {
	return c.GyroClampRad > 0 || c.MedianWindow >= 3 || c.StuckWindow >= 2 || c.LowPassHz > 0
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.GyroClampRad < 0 {
		return fmt.Errorf("mitigation: negative gyro clamp %v", c.GyroClampRad)
	}
	if c.MedianWindow < 0 || c.MedianWindow > maxMedianWindow {
		return fmt.Errorf("mitigation: median window %d outside [0, %d]", c.MedianWindow, maxMedianWindow)
	}
	if c.StuckWindow < 0 || c.StuckWindow > 10000 {
		return fmt.Errorf("mitigation: stuck window %d outside [0, 10000]", c.StuckWindow)
	}
	if c.LowPassHz < 0 {
		return fmt.Errorf("mitigation: negative low-pass cutoff %v", c.LowPassHz)
	}
	if c.SampleRateHz < 0 {
		return fmt.Errorf("mitigation: negative sample rate %v", c.SampleRateHz)
	}
	if c.RotorFDIWindow < 0 || c.RotorFDIWindow > 10000 {
		return fmt.Errorf("mitigation: rotor FDI window %d outside [0, 10000]", c.RotorFDIWindow)
	}
	if c.RotorFDITol < 0 || c.RotorFDITol >= 1 {
		return fmt.Errorf("mitigation: rotor FDI tolerance %v outside [0, 1)", c.RotorFDITol)
	}
	if c.ReconfigAllocation && !c.RotorFDIEnabled() {
		return fmt.Errorf("mitigation: reconfig allocation requires the rotor FDI monitor (RotorFDIWindow >= 1)")
	}
	if c.OppositeDerate < 0 || c.OppositeDerate > 1 {
		return fmt.Errorf("mitigation: opposite derate %v outside [0, 1]", c.OppositeDerate)
	}
	return nil
}

// Pipeline applies the configured stages to an IMU stream. It is a plain
// value with fixed-size median windows, so copying a Pipeline copies its
// complete state. Not safe for concurrent use; each vehicle owns one.
type Pipeline struct {
	cfg Config

	medAccel [3]medianFilter // window 0 when the median stage is off
	medGyro  [3]medianFilter

	lpAccel mathx.LowPass3 // used when cfg.LowPassHz > 0
	lpGyro  mathx.LowPass3

	stuckAccel stuckDetector
	stuckGyro  stuckDetector
}

// NewPipeline builds a pipeline for the configuration.
func NewPipeline(cfg Config) (Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return Pipeline{}, err
	}
	p := Pipeline{cfg: cfg}
	if w := cfg.MedianWindow; w >= 3 {
		if w%2 == 0 {
			w++
		}
		for i := 0; i < 3; i++ {
			p.medAccel[i].window = w
			p.medGyro[i].window = w
		}
	}
	if cfg.StuckWindow >= 2 {
		p.stuckAccel.window = cfg.StuckWindow
		p.stuckGyro.window = cfg.StuckWindow
	}
	if cfg.LowPassHz > 0 {
		rate := cfg.SampleRateHz
		if rate <= 0 {
			rate = 250
		}
		p.lpAccel = *mathx.NewLowPass3(cfg.LowPassHz, 1/rate)
		p.lpGyro = *mathx.NewLowPass3(cfg.LowPassHz, 1/rate)
	}
	return p, nil
}

// Apply runs one sample through the pipeline, returning the filtered
// sample and whether a stuck output was detected on this sample's
// evidence.
func (p *Pipeline) Apply(s sensors.IMUSample) (sensors.IMUSample, bool) {
	stuck := false
	if p.cfg.StuckWindow >= 2 {
		// Detection runs on the RAW stream, before filtering can mask
		// the repetition signature.
		stuck = p.stuckAccel.observe(s.Accel) || p.stuckGyro.observe(s.Gyro)
	}
	if p.cfg.GyroClampRad > 0 {
		s.Gyro = s.Gyro.Clamp(p.cfg.GyroClampRad)
	}
	if p.medAccel[0].window > 0 {
		// One sort scratch for all six axes, on the stack: it carries
		// nothing from one push to the next.
		var scratch [maxMedianWindow]float64
		s.Accel = mathx.Vec3{
			X: p.medAccel[0].push(s.Accel.X, &scratch),
			Y: p.medAccel[1].push(s.Accel.Y, &scratch),
			Z: p.medAccel[2].push(s.Accel.Z, &scratch),
		}
		s.Gyro = mathx.Vec3{
			X: p.medGyro[0].push(s.Gyro.X, &scratch),
			Y: p.medGyro[1].push(s.Gyro.Y, &scratch),
			Z: p.medGyro[2].push(s.Gyro.Z, &scratch),
		}
	}
	if p.cfg.LowPassHz > 0 {
		s.Accel = p.lpAccel.Update(s.Accel)
		s.Gyro = p.lpGyro.Update(s.Gyro)
	}
	return s, stuck
}

// StuckDetected reports whether the guard has latched a stuck sensor.
func (p *Pipeline) StuckDetected() bool {
	return p.stuckAccel.latched || p.stuckGyro.latched
}

// maxMedianWindow is the largest median window Validate admits, the
// largest any configuration flies (DefaultConfig's 5). Every vehicle
// state carries six windows of this length.
const maxMedianWindow = 5

// medianFilter is a fixed-window per-axis running median over the first
// window slots of buf.
type medianFilter struct {
	buf    [maxMedianWindow]float64
	window int
	idx    int
	filled int
}

// push adds a sample and returns the current median, sorting in scratch.
// Until the window fills, the median of the seen samples is returned.
func (m *medianFilter) push(x float64, scratch *[maxMedianWindow]float64) float64 {
	m.buf[m.idx] = x
	m.idx = (m.idx + 1) % m.window
	if m.filled < m.window {
		m.filled++
	}
	// Insertion into a small sorted scratch slice: windows are <= 5, so
	// this beats heap bookkeeping and allocates nothing.
	sorted := scratch[:0]
	for i := 0; i < m.filled; i++ {
		v := m.buf[i]
		pos := 0
		for pos < len(sorted) && sorted[pos] < v {
			pos++
		}
		sorted = append(sorted, 0)
		copy(sorted[pos+1:], sorted[pos:])
		sorted[pos] = v
	}
	return sorted[m.filled/2]
}

// stuckDetector counts exactly-repeated consecutive vectors.
type stuckDetector struct {
	window  int
	last    mathx.Vec3
	repeats int
	primed  bool
	latched bool
}

// observe feeds one vector; returns true when the repetition count
// crosses the window (and latches).
func (d *stuckDetector) observe(v mathx.Vec3) bool {
	if d.primed && v == d.last {
		d.repeats++
	} else {
		d.repeats = 0
	}
	d.last = v
	d.primed = true
	if d.repeats+1 >= d.window {
		d.latched = true
		return true
	}
	return false
}
