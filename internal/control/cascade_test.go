package control

import (
	"math"
	"testing"
	"testing/quick"

	"uavres/internal/mathx"
	"uavres/internal/physics"
)

// flyClosedLoop runs the controller against the true physics with perfect
// state feedback for the given duration, returning the body. This isolates
// controller correctness from estimation.
func flyClosedLoop(t *testing.T, start physics.State, sp Setpoint, seconds float64) *physics.Body {
	t.Helper()
	params := physics.DefaultParams()
	body, err := physics.NewBody(params, physics.CalmWind())
	if err != nil {
		t.Fatal(err)
	}
	body.SetState(start)
	ctl := New(DefaultGains(), params, 0.004)
	const dt = 0.002
	steps := int(seconds / dt)
	for i := 0; i < steps; i++ {
		if i%2 == 0 { // control at 250 Hz, physics at 500 Hz
			st := body.State()
			est := Estimate{Att: st.Att, Vel: st.Vel, Pos: st.Pos}
			cmd, _ := ctl.Update(0.004, est, body.AngularRate(), sp)
			body.SetMotorCommands(cmd)
		}
		body.Step(dt)
	}
	return body
}

func hoverStart(alt float64) physics.State {
	hover := physics.DefaultParams().HoverThrustFraction()
	s := physics.State{Att: mathx.QuatIdentity()}
	s.Pos.Z = -alt
	for i := range s.Rotor {
		s.Rotor[i] = hover
	}
	return s
}

func TestHoldsPositionAtHover(t *testing.T) {
	sp := Setpoint{Pos: mathx.V3(0, 0, -15), CruiseSpeed: 5}
	body := flyClosedLoop(t, hoverStart(15), sp, 10)
	st := body.State()
	if st.Pos.Dist(sp.Pos) > 0.3 {
		t.Errorf("hover position error = %v m", st.Pos.Dist(sp.Pos))
	}
	if st.Vel.Norm() > 0.2 {
		t.Errorf("hover residual velocity = %v", st.Vel.Norm())
	}
}

func TestClimbsToAltitude(t *testing.T) {
	sp := Setpoint{Pos: mathx.V3(0, 0, -30), CruiseSpeed: 5, MaxClimb: 3}
	body := flyClosedLoop(t, hoverStart(10), sp, 15)
	if alt := body.State().AltitudeM(); math.Abs(alt-30) > 0.5 {
		t.Errorf("altitude = %v, want 30", alt)
	}
}

func TestFliesToHorizontalWaypoint(t *testing.T) {
	sp := Setpoint{Pos: mathx.V3(40, -25, -15), Yaw: math.Atan2(-25, 40), CruiseSpeed: 8}
	body := flyClosedLoop(t, hoverStart(15), sp, 25)
	st := body.State()
	if d := st.Pos.Dist(sp.Pos); d > 1.0 {
		t.Errorf("waypoint distance after 25 s = %v m", d)
	}
	if st.Att.TiltAngle() > 0.1 {
		t.Errorf("residual tilt = %v rad", st.Att.TiltAngle())
	}
}

func TestCruiseSpeedRespected(t *testing.T) {
	params := physics.DefaultParams()
	body, err := physics.NewBody(params, physics.CalmWind())
	if err != nil {
		t.Fatal(err)
	}
	body.SetState(hoverStart(15))
	ctl := New(DefaultGains(), params, 0.004)
	sp := Setpoint{Pos: mathx.V3(500, 0, -15), CruiseSpeed: 6}
	var maxSpeed float64
	const dt = 0.002
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			st := body.State()
			est := Estimate{Att: st.Att, Vel: st.Vel, Pos: st.Pos}
			cmd, _ := ctl.Update(0.004, est, body.AngularRate(), sp)
			body.SetMotorCommands(cmd)
		}
		body.Step(dt)
		if v := body.State().Vel.NormXY(); v > maxSpeed {
			maxSpeed = v
		}
	}
	if maxSpeed > 6.6 { // 10% margin over the commanded cruise
		t.Errorf("max horizontal speed = %v, cruise limit 6", maxSpeed)
	}
	if maxSpeed < 5 {
		t.Errorf("max horizontal speed = %v, vehicle barely moved", maxSpeed)
	}
}

func TestYawTracking(t *testing.T) {
	sp := Setpoint{Pos: mathx.V3(0, 0, -15), Yaw: 1.2, CruiseSpeed: 5}
	body := flyClosedLoop(t, hoverStart(15), sp, 8)
	_, _, yaw := body.State().Att.Euler()
	if math.Abs(mathx.WrapPi(yaw-1.2)) > 0.05 {
		t.Errorf("yaw = %v, want 1.2", yaw)
	}
}

func TestRecoversFromInitialTilt(t *testing.T) {
	start := hoverStart(20)
	start.Att = mathx.QuatFromEuler(0.5, -0.4, 0) // ~30 deg initial upset
	sp := Setpoint{Pos: mathx.V3(0, 0, -20), CruiseSpeed: 5}
	body := flyClosedLoop(t, start, sp, 10)
	st := body.State()
	if st.Att.TiltAngle() > 0.05 {
		t.Errorf("tilt after recovery = %v rad", st.Att.TiltAngle())
	}
	if st.Pos.Dist(sp.Pos) > 2 {
		t.Errorf("position error after upset recovery = %v", st.Pos.Dist(sp.Pos))
	}
}

func TestDescendRateLimited(t *testing.T) {
	params := physics.DefaultParams()
	body, err := physics.NewBody(params, physics.CalmWind())
	if err != nil {
		t.Fatal(err)
	}
	body.SetState(hoverStart(50))
	ctl := New(DefaultGains(), params, 0.004)
	sp := Setpoint{Pos: mathx.V3(0, 0, -5), CruiseSpeed: 5, MaxDescend: 1.5}
	var maxSink float64
	const dt = 0.002
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			st := body.State()
			est := Estimate{Att: st.Att, Vel: st.Vel, Pos: st.Pos}
			cmd, _ := ctl.Update(0.004, est, body.AngularRate(), sp)
			body.SetMotorCommands(cmd)
		}
		body.Step(dt)
		if v := body.State().Vel.Z; v > maxSink {
			maxSink = v
		}
	}
	if maxSink > 1.8 {
		t.Errorf("max sink rate = %v m/s, limit 1.5", maxSink)
	}
}

func TestTiltLimit(t *testing.T) {
	f := limitTilt(mathx.V3(100, 0, -9.81), mathx.Deg2Rad(35))
	tilt := math.Atan2(f.NormXY(), -f.Z)
	if tilt > mathx.Deg2Rad(35)+1e-9 {
		t.Errorf("tilt after limit = %v deg", mathx.Rad2Deg(tilt))
	}
	// Within limits the vector is untouched.
	in := mathx.V3(1, 1, -9.81)
	if got := limitTilt(in, mathx.Deg2Rad(35)); got != in {
		t.Errorf("in-envelope vector modified: %v", got)
	}
}

func TestAttitudeFromThrustLevel(t *testing.T) {
	ctl := New(DefaultGains(), physics.DefaultParams(), 0.004)
	// Pure vertical thrust with yaw 0 is identity attitude.
	q := ctl.attitudeFromThrust(mathx.V3(0, 0, -9.81), 0)
	if q.AngleTo(mathx.QuatIdentity()) > 1e-9 {
		t.Errorf("level attitude = %v", q)
	}
	// Thrust tipped toward +X pitches forward (negative pitch in FRD... the
	// body -Z must align with the thrust direction).
	q = ctl.attitudeFromThrust(mathx.V3(3, 0, -9.81), 0)
	up := q.Rotate(mathx.V3(0, 0, -1))
	want := mathx.V3(3, 0, -9.81).Normalized()
	if up.Sub(want).Norm() > 1e-9 {
		t.Errorf("body up = %v, want %v", up, want)
	}
}

func TestControllerOutputsInRange(t *testing.T) {
	params := physics.DefaultParams()
	ctl := New(DefaultGains(), params, 0.004)
	// Garbage gyro (fault-like) must still produce valid motor commands.
	est := Estimate{Att: mathx.QuatIdentity(), Pos: mathx.V3(0, 0, -10)}
	cmd, _ := ctl.Update(0.004, est, mathx.V3(-35, 35, -35), Setpoint{Pos: mathx.V3(0, 0, -10)})
	for i, c := range cmd {
		if c < 0 || c > 1 || math.IsNaN(c) {
			t.Errorf("cmd[%d] = %v", i, c)
		}
	}
}

// TestControllerRejectsSteadyWind: under a constant 3 m/s crosswind the
// cascade's velocity integral must hold the hover position.
func TestControllerRejectsSteadyWind(t *testing.T) {
	params := physics.DefaultParams()
	wind := physics.NewWind(mathx.V3(0, 3, 0), 0, 1, nil)
	body, err := physics.NewBody(params, wind)
	if err != nil {
		t.Fatal(err)
	}
	body.SetState(hoverStart(15))
	ctl := New(DefaultGains(), params, 0.004)
	sp := Setpoint{Pos: mathx.V3(0, 0, -15), CruiseSpeed: 5}
	const dt = 0.002
	for i := 0; i < 10000; i++ { // 20 s
		if i%2 == 0 {
			st := body.State()
			est := Estimate{Att: st.Att, Vel: st.Vel, Pos: st.Pos}
			cmd, _ := ctl.Update(0.004, est, body.AngularRate(), sp)
			body.SetMotorCommands(cmd)
		}
		body.Step(dt)
	}
	if d := body.State().Pos.Dist(sp.Pos); d > 1.0 {
		t.Errorf("hover error under 3 m/s wind = %.2f m", d)
	}
}

// Property: the controller never emits NaN or out-of-range motor commands
// for arbitrary finite inputs — garbage sensor data must not corrupt the
// actuator path.
func TestControllerOutputAlwaysValid(t *testing.T) {
	params := physics.DefaultParams()
	prop := func(px, py, pz, vx, vy, vz, gx, gy, gz, qx, qy, qz float64) bool {
		ctl := New(DefaultGains(), params, 0.004)
		bound := func(x, lim float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, lim)
		}
		est := Estimate{
			Att: mathx.QuatFromEuler(bound(qx, math.Pi), bound(qy, math.Pi/2), bound(qz, math.Pi)),
			Vel: mathx.V3(bound(vx, 1e3), bound(vy, 1e3), bound(vz, 1e3)),
			Pos: mathx.V3(bound(px, 1e6), bound(py, 1e6), bound(pz, 1e6)),
		}
		gyro := mathx.V3(bound(gx, 40), bound(gy, 40), bound(gz, 40))
		sp := Setpoint{Pos: mathx.V3(0, 0, -15), CruiseSpeed: 5}
		cmd, diag := ctl.Update(0.004, est, gyro, sp)
		for _, c := range cmd {
			if math.IsNaN(c) || c < 0 || c > 1 {
				return false
			}
		}
		return !math.IsNaN(diag.ThrustN)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUpdateAllocFree pins one full cascade pass (position, velocity,
// attitude and rate loops down to rotor commands) at zero allocations
// per op.
func TestUpdateAllocFree(t *testing.T) {
	ctl := New(DefaultGains(), physics.DefaultParams(), 0.004)
	est := Estimate{Att: mathx.QuatIdentity(), Vel: mathx.V3(1, 0, 0), Pos: mathx.V3(0, 0, -20)}
	sp := Setpoint{Pos: mathx.V3(50, 10, -25), Yaw: 0.3, CruiseSpeed: 8, MaxClimb: 3, MaxDescend: 2}
	gyro := mathx.V3(0.01, -0.02, 0.005)
	if n := testing.AllocsPerRun(100, func() { _, _ = ctl.Update(0.004, est, gyro, sp) }); n != 0 {
		t.Errorf("Controller.Update allocates %v per op, want 0", n)
	}
}
