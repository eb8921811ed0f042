package physics

import (
	"testing"

	"uavres/internal/mathx"
)

// TestBodyStepAllocFree pins the 500 Hz rigid-body step at zero
// allocations per op (alloc-regression guard: the campaign runs this
// 500 times per simulated second per case).
func TestBodyStepAllocFree(t *testing.T) {
	body, err := NewBody(DefaultParams(), CalmWind())
	if err != nil {
		t.Fatal(err)
	}
	hover := DefaultParams().HoverThrustFraction()
	body.SetMotorCommands(Rotors{hover, hover, hover, hover})
	st := body.State()
	st.Pos.Z = -20
	body.SetState(st)
	if n := testing.AllocsPerRun(100, func() { body.Step(0.002) }); n != 0 {
		t.Errorf("Body.Step allocates %v per op, want 0", n)
	}
}

// TestWindStepAllocFree pins the gusty wind model (OU discretization +
// three normal draws) at zero allocations per op.
func TestWindStepAllocFree(t *testing.T) {
	w := NewWind(mathx.V3(1, 0, 0), 0.25, 2.0, mathx.NewRand(7))
	if n := testing.AllocsPerRun(100, func() { w.Step(0.002) }); n != 0 {
		t.Errorf("Wind.Step allocates %v per op, want 0", n)
	}
}

// TestMixerAllocateAllocFree pins control allocation at zero allocations
// per op on every airframe, plus the reconfigured allocator rotor FDI
// hands the controller after condemning a hexa-x rotor.
func TestMixerAllocateAllocFree(t *testing.T) {
	torque := mathx.V3(0.1, -0.1, 0.01)
	for _, layout := range Airframes() {
		p := DefaultParams()
		p.Layout = layout
		m := NewMixer(p)
		if n := testing.AllocsPerRun(100, func() { _ = m.Allocate(14.7, torque) }); n != 0 {
			t.Errorf("%v Mixer.Allocate allocates %v per op, want 0", layout, n)
		}
	}
	p := DefaultParams()
	p.Layout = HexaX
	weights := Rotors{0, 1, 1, 1, 1, 1}
	a, err := NewMixer(p).ReconfiguredAllocator(weights)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.Allocate(14.7, torque) }); n != 0 {
		t.Errorf("reconfigured Allocator.Allocate allocates %v per op, want 0", n)
	}
}
