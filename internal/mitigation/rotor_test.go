package mitigation

import (
	"math"
	"testing"

	"uavres/internal/physics"
)

const (
	testTau = 0.05
	testDt  = 0.004
)

func testMonitor(window int) *RotorMonitor {
	cfg := Config{RotorFDIWindow: window, RotorFDITol: 0.15}
	return NewRotorMonitor(cfg, 4, testTau, testDt)
}

// motorModel integrates the body's first-order motor lag exactly like the
// monitor's internal replay — the same closed form physics.Body uses.
type motorModel struct {
	state physics.Rotors
	lag   float64
	n     int
}

func (m *motorModel) step(cmd physics.Rotors) {
	for i := 0; i < m.n; i++ {
		m.state[i] += (cmd[i] - m.state[i]) * m.lag
	}
}

// TestHealthyRotorsNeverCondemned drives the monitor with commands and a
// perfectly tracking motor model for thousands of cycles: the residual
// stays at rounding level and nothing trips.
func TestHealthyRotorsNeverCondemned(t *testing.T) {
	m := testMonitor(5)
	plant := &motorModel{lag: 1 - math.Exp(-testDt/testTau), n: 4}
	for k := 0; k < 5000; k++ {
		cmd := physics.Rotors{
			0.4 + 0.3*math.Sin(float64(k)*0.01),
			0.4 + 0.3*math.Cos(float64(k)*0.013),
			0.5, 0.6,
		}
		if m.Observe(cmd, plant.state) {
			t.Fatalf("healthy rotor condemned at cycle %d", k)
		}
		plant.step(cmd)
	}
	if m.AnyCondemned() {
		t.Error("healthy run ended with condemned rotors")
	}
}

// TestFaultedRotorCondemnedAfterWindow checks a float fault (rotor output
// pinned to 0 while commands stay high) trips after exactly window
// consecutive anomalous cycles — latched and reported once.
func TestFaultedRotorCondemnedAfterWindow(t *testing.T) {
	const window = 5
	m := testMonitor(window)
	plant := &motorModel{lag: 1 - math.Exp(-testDt/testTau), n: 4}
	cmd := physics.Rotors{0.7, 0.7, 0.7, 0.7}
	// Warm the model up to steady state.
	for k := 0; k < 2000; k++ {
		m.Observe(cmd, plant.state)
		plant.step(cmd)
	}
	if m.AnyCondemned() {
		t.Fatal("condemned during warm-up")
	}
	// Rotor 2 floats: its measured state decays toward zero while the
	// others keep tracking.
	condemnedAt := -1
	for k := 0; k < 200; k++ {
		meas := plant.state
		meas[2] = 0
		if m.Observe(cmd, meas) {
			condemnedAt = k
			break
		}
		plant.step(cmd)
	}
	if condemnedAt < 0 {
		t.Fatal("floating rotor never condemned")
	}
	if !m.Condemned(2) || m.CondemnedCount() != 1 {
		t.Errorf("condemned set wrong: rotor2=%v count=%d", m.Condemned(2), m.CondemnedCount())
	}
	// Residual exceeds tol immediately (0.7 vs 0), so the strike counter
	// trips on the window'th anomalous observation.
	if condemnedAt != window-1 {
		t.Errorf("condemned at cycle %d, want %d", condemnedAt, window-1)
	}
	// Latched: further observations never re-report.
	for k := 0; k < 50; k++ {
		meas := plant.state
		meas[2] = 0
		if m.Observe(cmd, meas) {
			t.Fatal("latched condemnation re-reported")
		}
	}
}

// TestTransientGlitchResets checks a sub-window burst of anomalies is
// forgiven once tracking resumes.
func TestTransientGlitchResets(t *testing.T) {
	m := testMonitor(5)
	plant := &motorModel{lag: 1 - math.Exp(-testDt/testTau), n: 4}
	cmd := physics.Rotors{0.6, 0.6, 0.6, 0.6}
	for k := 0; k < 1000; k++ {
		m.Observe(cmd, plant.state)
		plant.step(cmd)
	}
	for k := 0; k < 3; k++ { // 3 < window=5
		meas := plant.state
		meas[0] = 0
		if m.Observe(cmd, meas) {
			t.Fatal("condemned inside a sub-window glitch")
		}
		plant.step(cmd)
	}
	for k := 0; k < 1000; k++ {
		if m.Observe(cmd, plant.state) {
			t.Fatal("condemned after glitch cleared")
		}
		plant.step(cmd)
	}
	if m.AnyCondemned() {
		t.Error("glitch left a condemned rotor")
	}
}

// TestWeights checks the condemned set maps to allocation weights with
// opposite-rotor derating.
func TestWeights(t *testing.T) {
	m := NewRotorMonitor(Config{RotorFDIWindow: 1, RotorFDITol: 0.15}, 6, testTau, testDt)
	m.condemned[1] = true
	w := m.Weights(physics.HexaX, 0.6)
	if w[1] != 0 {
		t.Errorf("condemned weight %v, want 0", w[1])
	}
	opp := physics.HexaX.Opposite(1)
	if w[opp] != 0.6 {
		t.Errorf("opposite weight %v, want 0.6", w[opp])
	}
	for i := 0; i < 6; i++ {
		if i != 1 && i != opp && w[i] != 1 {
			t.Errorf("healthy weight[%d] = %v, want 1", i, w[i])
		}
	}
	// Derate 0 condemns the pair outright (the classic coplanar
	// strategy); derate 1 leaves the partner untouched.
	w = m.Weights(physics.HexaX, 0)
	if w[opp] != 0 {
		t.Errorf("derate-0 opposite weight %v, want 0", w[opp])
	}
	w = m.Weights(physics.HexaX, 1)
	if w[opp] != 1 {
		t.Errorf("derate-1 opposite weight %v, want 1", w[opp])
	}
}

// TestRotorMonitorSnapshotRoundTrip checks checkpoint/restore carries the
// full detection state: a restored monitor condemns at exactly the same
// cycle the original would have.
func TestRotorMonitorSnapshotRoundTrip(t *testing.T) {
	a := testMonitor(5)
	plant := &motorModel{lag: 1 - math.Exp(-testDt/testTau), n: 4}
	cmd := physics.Rotors{0.5, 0.5, 0.5, 0.5}
	for k := 0; k < 500; k++ {
		a.Observe(cmd, plant.state)
		plant.step(cmd)
	}
	// Two strikes in, snapshot, then let both finish the window.
	for k := 0; k < 2; k++ {
		meas := plant.state
		meas[3] = 0
		a.Observe(cmd, meas)
	}
	b := testMonitor(5)
	b.Restore(a.Snapshot())
	for k := 0; k < 10; k++ {
		meas := plant.state
		meas[3] = 0
		ra, rb := a.Observe(cmd, meas), b.Observe(cmd, meas)
		if ra != rb {
			t.Fatalf("cycle %d: original reported %v, restored %v", k, ra, rb)
		}
	}
	if !a.Condemned(3) || !b.Condemned(3) {
		t.Error("rotor 3 not condemned on both paths")
	}
}

// TestRotorFDIConfig checks the config gating and validation rules.
func TestRotorFDIConfig(t *testing.T) {
	if DefaultConfig().RotorFDIEnabled() {
		t.Error("rotor FDI enabled by default — this would change every stored fingerprint")
	}
	rd := DefaultConfig().RotorDefaults()
	if !rd.RotorFDIEnabled() || !rd.ReconfigAllocation {
		t.Errorf("RotorDefaults not armed: %+v", rd)
	}
	if err := rd.Validate(); err != nil {
		t.Errorf("RotorDefaults invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.ReconfigAllocation = true // without FDI nothing can trigger it
	if err := bad.Validate(); err == nil {
		t.Error("ReconfigAllocation without rotor FDI accepted")
	}
	bad = rd
	bad.RotorFDITol = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("tolerance >= 1 accepted")
	}
}

// TestRotorObserveAllocFree pins one healthy FDI cycle on a hexa-x at
// zero allocations per op.
func TestRotorObserveAllocFree(t *testing.T) {
	p := physics.DefaultParams()
	p.Layout = physics.HexaX
	n := p.Layout.Rotors()
	m := NewRotorMonitor(Config{}.RotorDefaults(), n, p.MotorTau, testDt)
	var cmd physics.Rotors
	for i := 0; i < n; i++ {
		cmd[i] = p.HoverThrustFraction()
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Observe(cmd, cmd) }); allocs != 0 {
		t.Errorf("RotorMonitor.Observe allocates %v per op, want 0", allocs)
	}
}
