package mitigation

import (
	"math"

	"uavres/internal/mathx"
	"uavres/internal/physics"
)

// RotorMonitor is the per-rotor fault detection and isolation stage: it
// replays the body's exact first-order motor-lag model on the commands the
// controller intends and compares against the measured rotor states. A
// healthy rotor tracks the model to ~1e-16 (both sides integrate the same
// closed form), so any sustained residual is an actuator fault signature —
// loss-of-effectiveness, stuck, or float — not noise. After RotorFDIWindow
// consecutive anomalous control cycles the rotor is condemned (latched);
// the vehicle then re-solves its control allocation around it.
//
// Like the sensor pipeline, the monitor needs no ground truth: a real
// flight stack reads the same quantities from ESC RPM telemetry. It is a
// plain value, so copying a monitor copies its complete state.
type RotorMonitor struct {
	n      int
	window int
	tol    float64
	lag    float64 // 1 - exp(-dt/motorTau) over one control cycle

	primed    bool
	prevCmd   physics.Rotors
	expected  physics.Rotors
	strikes   [physics.MaxRotors]int
	condemned [physics.MaxRotors]bool
}

// NewRotorMonitor builds a monitor for an n-rotor airframe whose motors
// have time constant motorTau, observed every dt seconds (the control
// cycle). cfg supplies the window and tolerance.
func NewRotorMonitor(cfg Config, n int, motorTau, dt float64) RotorMonitor {
	tol := cfg.RotorFDITol
	if tol <= 0 {
		tol = DefaultRotorFDITol
	}
	return RotorMonitor{
		n:      n,
		window: cfg.RotorFDIWindow,
		tol:    tol,
		lag:    1 - math.Exp(-dt/motorTau),
	}
}

// Observe advances the expected-rotor model by the previously intended
// commands, compares it with the measured rotor states, and updates the
// per-rotor strike counters. cmd is the command the controller intends
// THIS cycle (pre-injection — the fault acts between controller and
// motor); meas is the rotor state measured at the start of the cycle,
// which reflects commands up to the previous cycle. Observe returns true
// when a new rotor was condemned this cycle.
func (m *RotorMonitor) Observe(cmd, meas physics.Rotors) bool {
	if !m.primed {
		m.primed = true
		m.expected = meas
		m.prevCmd = cmd
		return false
	}
	changed := false
	for i := 0; i < m.n; i++ {
		// Flushed like the body's rotor lag, so a dead rotor's model
		// reads exactly 0 rather than a subnormal tail.
		m.expected[i] = mathx.FlushSubnormal(m.expected[i] + (m.prevCmd[i]-m.expected[i])*m.lag)
		if m.condemned[i] {
			continue
		}
		if math.Abs(meas[i]-m.expected[i]) > m.tol {
			m.strikes[i]++
			if m.strikes[i] >= m.window {
				m.condemned[i] = true
				changed = true
			}
		} else {
			m.strikes[i] = 0
		}
	}
	m.prevCmd = cmd
	return changed
}

// AnyCondemned reports whether at least one rotor has been condemned.
func (m *RotorMonitor) AnyCondemned() bool {
	for i := 0; i < m.n; i++ {
		if m.condemned[i] {
			return true
		}
	}
	return false
}

// CondemnedCount returns how many rotors have been condemned.
func (m *RotorMonitor) CondemnedCount() int {
	c := 0
	for i := 0; i < m.n; i++ {
		if m.condemned[i] {
			c++
		}
	}
	return c
}

// Condemned reports whether rotor i has been condemned.
func (m *RotorMonitor) Condemned(i int) bool { return m.condemned[i] }

// Weights maps the condemned set to per-rotor allocation health weights:
// condemned rotors get 0 and the diametric partner of each condemned rotor
// is capped at derate (0 condemns the pair outright — see
// Config.OppositeDerate); everything else stays 1.
func (m *RotorMonitor) Weights(frame physics.Airframe, derate float64) physics.Rotors {
	var w physics.Rotors
	for i := 0; i < m.n; i++ {
		w[i] = 1
	}
	for i := 0; i < m.n; i++ {
		if !m.condemned[i] {
			continue
		}
		w[i] = 0
		opp := frame.Opposite(i)
		if !m.condemned[opp] && derate < w[opp] {
			w[opp] = derate
		}
	}
	return w
}
