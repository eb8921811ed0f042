package control

import (
	"math"
	"testing"

	"uavres/internal/mathx"
	"uavres/internal/physics"
)

// goldenCommandSteps is the length of TestCommandGolden's input sequence.
const goldenCommandSteps = 24

// goldenCommandInput is step k of a fixed cascade input sequence. For the
// first half the setpoint lies far ahead and below at high cruise speed:
// the descent leaves little vertical thrust, so the tilt limit binds. Then
// the setpoint and yaw change, and the estimate and gyro wander
// deterministically throughout.
func goldenCommandInput(k int) (Estimate, mathx.Vec3, Setpoint) {
	f := float64(k)
	est := Estimate{
		Att: mathx.QuatFromEuler(0.02*math.Sin(f), -0.03*math.Cos(0.7*f), 0.1+0.01*f),
		Vel: mathx.V3(0.3*f, -0.1*f, 0.05*math.Sin(f)),
		Pos: mathx.V3(0.01*f, 0, -20),
	}
	gyro := mathx.V3(0.05*math.Sin(1.3*f), -0.04*math.Cos(f), 0.01)
	sp := Setpoint{Pos: mathx.V3(400, -300, -10), Yaw: 0.3, CruiseSpeed: 20, MaxClimb: 3, MaxDescend: 2}
	if k >= goldenCommandSteps/2 {
		sp.Pos = mathx.V3(0.01*f+0.5, 0.2, -20.1)
		sp.Yaw = -0.4
	}
	return est, gyro, sp
}

// commandGolden holds Command's quad rotor commands as float64 bits for
// each step of goldenCommandInput, recorded before the cascade's tilt
// tangent was cached, its setpoint matrix filled in place, and its thrust
// floor moved to the builtin max.
var commandGolden = [goldenCommandSteps][4]uint64{
	{0x3fd46b56188582bc, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fd95d6e23535aaf, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fd5615ba65bbe7e, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fcdde0461fa0f4d, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fc825a6318dc100, 0x0000000000000000, 0x3fef711c041304e2, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fcea1e8cdc8d444, 0x0000000000000000, 0x3fee4716f94578e6, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fd598c94bcd5033, 0x0000000000000000, 0x3fef332ea6759651, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fda0b909c906a50, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fda9497e8162fcd, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fd8878931d029e9, 0x0000000000000000, 0x3fee220dbb28d806, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fd60ec7374b5166, 0x0000000000000000, 0x3fea61a0d27657ed, 0x3ff0000000000000}, // tilt 0.6109
	{0x3fd459cad936b68f, 0x0000000000000000, 0x3fe61c5cacbf54c2, 0x3ff0000000000000}, // tilt 0.6109
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5376
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5293
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5245
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5273
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5353
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5412
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5393
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5315
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3fedd16b39bea193, 0x0000000000000000}, // tilt 0.5250
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3fed56a9805a1c03, 0x0000000000000000}, // tilt 0.5256
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5327
	{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000}, // tilt 0.5400
}

// TestCommandGolden pins the cascade bit for bit over a fixed input
// sequence, and checks that the sequence reaches the tilt limit.
func TestCommandGolden(t *testing.T) {
	gains := DefaultGains()
	ctl := New(gains, physics.DefaultParams(), 0.004)
	tilted := 0
	for k := 0; k < goldenCommandSteps; k++ {
		est, gyro, sp := goldenCommandInput(k)
		cmd, d := ctl.Update(0.004, est, gyro, sp)
		if math.Abs(d.AttSp.TiltAngle()-gains.MaxTiltRad) < 1e-9 {
			tilted++
		}
		for i, want := range commandGolden[k] {
			if got := math.Float64bits(cmd[i]); got != want {
				t.Errorf("step %d rotor %d = %#x (%v), want %#x (%v)", k, i,
					got, cmd[i], want, math.Float64frombits(want))
			}
		}
	}
	if tilted == 0 {
		t.Error("no step reached the tilt limit: the sequence no longer covers limitTilt")
	}
}

// BenchmarkControllerCommand times one cascade cycle, as a vehicle runs
// it, on the tilt-limited first half of goldenCommandInput.
func BenchmarkControllerCommand(b *testing.B) {
	ctl := New(DefaultGains(), physics.DefaultParams(), 0.004)
	est, gyro, sp := goldenCommandInput(3)
	var sink physics.Rotors
	for i := 0; i < b.N; i++ {
		sink = ctl.Loops.Command(&ctl.law, &ctl.frame, 0.004, est, gyro, sp)
	}
	_ = sink
}
