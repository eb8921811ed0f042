package sim

import (
	"math"
	"testing"

	"uavres/internal/mathx"
	"uavres/internal/mission"
)

func guideMission() mission.Mission {
	return mission.Mission{
		ID: 1, Name: "guide test", CruiseSpeedMS: 4, AltitudeM: 15,
		Drone: mission.DroneSpec{Name: "t", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 6},
		Start: mathx.V3(0, 0, 0),
		Waypoints: []mathx.Vec3{
			{X: 100, Y: 0, Z: -15},
			{X: 100, Y: 80, Z: -15},
		},
	}
}

func TestGuidanceTakeoffTargetsCruiseAltitude(t *testing.T) {
	g, m := newGuidance(), guideMission()
	sp := g.update(&m, 0, mathx.V3(0, 0, -0.1), 0, true)
	if sp.Pos.Z != -15 || sp.Pos.X != 0 || sp.Pos.Y != 0 {
		t.Errorf("takeoff target = %v", sp.Pos)
	}
	if g.phase != phaseTakeoff {
		t.Errorf("phase = %v", g.phase)
	}
}

func TestGuidanceTransitionsToCruiseNearAltitude(t *testing.T) {
	g, m := newGuidance(), guideMission()
	g.update(&m, 10, mathx.V3(0, 0, -14.5), 0.5, false)
	if g.phase != phaseCruise {
		t.Errorf("phase = %v, want cruise", g.phase)
	}
}

func TestGuidanceLegTargetStaysOnLeg(t *testing.T) {
	g, m := newGuidance(), guideMission()
	g.phase = phaseCruise
	// 10 m cross-track off the first leg (which runs along +X at Y=0).
	sp := g.update(&m, 20, mathx.V3(40, 10, -15), 4, false)
	// The lookahead target lies ON the leg (Y = 0), ahead of the vehicle.
	if math.Abs(sp.Pos.Y) > 1e-9 {
		t.Errorf("leg target off the path: %v", sp.Pos)
	}
	if sp.Pos.X <= 40 {
		t.Errorf("leg target not ahead: %v", sp.Pos)
	}
}

func TestGuidanceWaypointAcceptanceAndProgress(t *testing.T) {
	g, m := newGuidance(), guideMission()
	g.phase = phaseCruise
	// Within the acceptance radius of waypoint 0.
	g.update(&m, 30, mathx.V3(98, 0, -15), 4, false)
	if g.waypointsReached() != 1 || g.wpIdx != 1 {
		t.Errorf("reached=%d wpIdx=%d", g.waypointsReached(), g.wpIdx)
	}
	// Then within acceptance of the final waypoint: phase goes to land.
	g.update(&m, 60, mathx.V3(100, 78, -15), 4, false)
	if g.phase != phaseLand {
		t.Errorf("phase = %v, want land", g.phase)
	}
}

func TestGuidanceLandingDisarmsAfterSettling(t *testing.T) {
	g, m := newGuidance(), guideMission()
	g.phase = phaseLand
	g.wpIdx = len(m.Waypoints)
	g.haveYaw = true
	// On ground, slow, for over a second of updates.
	g.update(&m, 100, mathx.V3(100, 80, -0.05), 0.1, true)
	g.update(&m, 100.5, mathx.V3(100, 80, -0.05), 0.1, true)
	if g.done() {
		t.Fatal("disarmed before the settle window elapsed")
	}
	g.update(&m, 101.2, mathx.V3(100, 80, -0.05), 0.1, true)
	if !g.done() {
		t.Error("not disarmed after settling on ground")
	}
}

func TestGuidanceLandingResetOnBounce(t *testing.T) {
	g, m := newGuidance(), guideMission()
	g.phase = phaseLand
	g.wpIdx = len(m.Waypoints)
	g.haveYaw = true
	g.update(&m, 100, mathx.V3(100, 80, -0.05), 0.1, true)
	// Bounce: airborne again resets the settle clock.
	g.update(&m, 100.6, mathx.V3(100, 80, -0.6), 1.2, false)
	g.update(&m, 101.3, mathx.V3(100, 80, -0.05), 0.1, true)
	if g.done() {
		t.Error("disarmed despite bounce interrupting the settle window")
	}
}

func TestGuidanceYawTurnsOntoNewLeg(t *testing.T) {
	g, m := newGuidance(), guideMission()
	g.phase = phaseCruise
	// Far from the waypoint: bearing toward it (+X → yaw 0).
	sp := g.update(&m, 20, mathx.V3(10, 0, -15), 4, false)
	if math.Abs(sp.Yaw) > 0.05 {
		t.Errorf("leg yaw = %v, want ~0", sp.Yaw)
	}
	// Reaching waypoint 0 advances to leg 2 (+Y): yaw turns to ~pi/2.
	sp = g.update(&m, 40, mathx.V3(99.7, 0.2, -15), 4, false)
	if math.Abs(sp.Yaw-math.Pi/2) > 0.05 {
		t.Errorf("yaw after turn = %v, want ~pi/2", sp.Yaw)
	}
}

func TestGuidanceYawHeldDuringLanding(t *testing.T) {
	g, m := newGuidance(), guideMission()
	g.phase = phaseCruise
	// Establish a bearing on leg 2 first.
	g.update(&m, 40, mathx.V3(99.7, 0.2, -15), 4, false)
	g.update(&m, 50, mathx.V3(100, 40, -15), 4, false)
	// Arrive at the final waypoint: land phase begins; yaw must hold the
	// last stable bearing instead of spinning on sub-meter noise.
	sp := g.update(&m, 70, mathx.V3(100.1, 79.8, -15), 4, false)
	if g.phase != phaseLand {
		t.Fatalf("phase = %v, want land", g.phase)
	}
	held := sp.Yaw
	for i := 0; i < 5; i++ {
		noisy := mathx.V3(100+0.3*float64(i%2), 80-0.2*float64(i%3), -10)
		sp = g.update(&m, 71+float64(i), noisy, 0.8, false)
		if sp.Yaw != held {
			t.Fatalf("landing yaw changed: %v -> %v", held, sp.Yaw)
		}
	}
}
