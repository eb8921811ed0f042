package physics_test

import (
	"math"
	"testing"

	"uavres/internal/mathx"
	"uavres/internal/physics"
)

func newTestBody(t *testing.T) *physics.Body {
	t.Helper()
	b, err := physics.NewBody(physics.DefaultParams(), physics.CalmWind())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMotorsOffEnergyDecays: with motors off and no wind, total mechanical
// energy can only decrease (drag and ground dissipate, nothing injects).
func TestMotorsOffEnergyDecays(t *testing.T) {
	b := newTestBody(t)
	s := b.State()
	s.Pos.Z = -100
	s.Vel = mathx.V3(5, -3, 0)
	s.Omega = mathx.V3(2, -1, 0.5)
	b.SetState(s)
	b.SetMotorCommands(physics.Rotors{})
	p := b.Params
	energy := func(st physics.State) float64 {
		kin := 0.5 * p.MassKg * st.Vel.NormSq()
		rot := 0.5 * (p.Inertia.X*st.Omega.X*st.Omega.X +
			p.Inertia.Y*st.Omega.Y*st.Omega.Y +
			p.Inertia.Z*st.Omega.Z*st.Omega.Z)
		pot := p.MassKg * physics.Gravity * st.AltitudeM()
		return kin + rot + pot
	}
	prev := energy(b.State())
	for i := 0; i < 1000; i++ {
		b.Step(0.002)
		cur := energy(b.State())
		if cur > prev+1e-6 {
			t.Fatalf("energy grew at step %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

// TestTerminalVelocity: a long free fall settles at drag-limited speed.
func TestTerminalVelocity(t *testing.T) {
	b := newTestBody(t)
	s := b.State()
	s.Pos.Z = -5000
	b.SetState(s)
	b.SetMotorCommands(physics.Rotors{})
	for i := 0; i < 10000; i++ { // 20 s
		b.Step(0.002)
	}
	p := b.Params
	want := p.MassKg * physics.Gravity / p.LinDragCoeff.Z
	if got := b.State().Vel.Z; math.Abs(got-want) > 0.05*want {
		t.Errorf("terminal velocity = %v, want ~%v", got, want)
	}
}
