package sim

import (
	"math"

	"uavres/internal/control"
	"uavres/internal/mathx"
	"uavres/internal/mission"
)

// flightPhase is the mission executor's state.
type flightPhase int

const (
	phaseTakeoff flightPhase = iota + 1
	phaseCruise
	phaseLand
	phaseDone
)

// guidance turns a mission plan into controller setpoints — the simulated
// counterpart of PX4's navigator/commander pairing.
type guidance struct {
	phase flightPhase
	wpIdx int

	climbRate   float64
	descendRate float64
	// landedSince is the sim time touchdown was first seen, or -1 while
	// airborne (0 is a valid timestamp, so it cannot be the sentinel).
	landedSince float64
	reached     int
	holdYaw     float64
	haveYaw     bool
}

func newGuidance() guidance {
	return guidance{
		phase:       phaseTakeoff,
		climbRate:   1.5,
		descendRate: 1.0,
		landedSince: -1,
	}
}

// waypointsReached returns route progress.
func (g *guidance) waypointsReached() int { return g.reached }

// done reports whether the mission executor finished (landed + disarmed).
func (g *guidance) done() bool { return g.phase == phaseDone }

// acceptRadius is the waypoint acceptance distance for the mission's speed.
func acceptRadius(m *mission.Mission) float64 {
	return math.Max(2, m.CruiseSpeedMS*1.2)
}

// legYaw returns the bearing of the active leg, which is also the heading
// setpoint (the vehicle flies nose-along-track, giving the EKF's GPS
// course aiding a valid reference). Near and past the final waypoint the
// bearing is held rather than recomputed — a bearing derived from a
// sub-meter vector is noise and would spin the heading setpoint.
func (g *guidance) legYaw(m *mission.Mission, estPos mathx.Vec3) float64 {
	var target mathx.Vec3
	if g.wpIdx < len(m.Waypoints) {
		target = m.Waypoints[g.wpIdx]
	} else {
		if g.haveYaw {
			return g.holdYaw
		}
		target = m.Waypoints[len(m.Waypoints)-1]
	}
	d := target.Sub(estPos)
	if d.NormXY() < math.Max(3, acceptRadius(m)) {
		if g.haveYaw {
			return g.holdYaw
		}
		if d.NormXY() < 1e-6 {
			return 0
		}
	}
	g.holdYaw = math.Atan2(d.Y, d.X)
	g.haveYaw = true
	return g.holdYaw
}

// update advances the executor through mission m and returns the current
// setpoint. estPos is the EKF position (guidance has no truth access);
// onGroundTruth and t feed the landing/disarm transition, which on real
// vehicles comes from land-detector logic.
func (g *guidance) update(m *mission.Mission, t float64, estPos mathx.Vec3, estSpeed float64, onGroundTruth bool) control.Setpoint {
	cruiseAlt := -m.AltitudeM

	switch g.phase {
	case phaseTakeoff:
		target := mathx.V3(m.Start.X, m.Start.Y, cruiseAlt)
		if math.Abs(estPos.Z-cruiseAlt) < 1.0 {
			g.phase = phaseCruise
		}
		return control.Setpoint{
			Pos: target, Yaw: g.legYaw(m, estPos),
			CruiseSpeed: m.CruiseSpeedMS, MaxClimb: g.climbRate,
		}

	case phaseCruise:
		wp := m.Waypoints[g.wpIdx]
		if estPos.DistXY(wp) < acceptRadius(m) {
			g.reached++
			g.wpIdx++
			if g.wpIdx >= len(m.Waypoints) {
				g.phase = phaseLand
				return g.update(m, t, estPos, estSpeed, onGroundTruth)
			}
			wp = m.Waypoints[g.wpIdx]
		}
		// Leg following: the position target is a lookahead point ON the
		// active leg, not the waypoint itself. Direct-to-waypoint pursuit
		// converges to the path only as the waypoint nears, leaving
		// corner-cut cross-track errors standing for hundreds of meters.
		return control.Setpoint{
			Pos: g.legTarget(m, estPos, wp), Yaw: g.legYaw(m, estPos),
			CruiseSpeed: m.CruiseSpeedMS, MaxClimb: g.climbRate, MaxDescend: g.descendRate,
		}

	case phaseLand:
		last := m.Waypoints[len(m.Waypoints)-1]
		// The vertical target sits well below ground so that estimation
		// bias (baro offset ~0.5 m) cannot stall the descent short of
		// touchdown; ground contact, not the position loop, ends it.
		target := mathx.V3(last.X, last.Y, 3.0)
		if onGroundTruth && estSpeed < 0.5 {
			if g.landedSince < 0 {
				g.landedSince = t
			} else if t-g.landedSince > 1.0 {
				g.phase = phaseDone
			}
		} else {
			g.landedSince = -1
		}
		return control.Setpoint{
			Pos: target, Yaw: g.legYaw(m, estPos),
			CruiseSpeed: 1.5, MaxDescend: g.descendRate,
		}

	default: // phaseDone
		last := m.Waypoints[len(m.Waypoints)-1]
		return control.Setpoint{Pos: mathx.V3(last.X, last.Y, 3.0), CruiseSpeed: 1}
	}
}

// legTarget projects the vehicle onto the active leg and returns a
// lookahead point along it — straight-line path following.
func (g *guidance) legTarget(m *mission.Mission, estPos, wp mathx.Vec3) mathx.Vec3 {
	var from mathx.Vec3
	if g.wpIdx == 0 {
		from = mathx.V3(m.Start.X, m.Start.Y, -m.AltitudeM)
	} else {
		from = m.Waypoints[g.wpIdx-1]
	}
	leg := wp.Sub(from)
	legLen := leg.Norm()
	if legLen < 1e-6 {
		return wp
	}
	dir := leg.Scale(1 / legLen)
	along := estPos.Sub(from).Dot(dir)
	lookahead := math.Max(6, m.CruiseSpeedMS*2.5)
	along = mathx.Clamp(along+lookahead, 0, legLen)
	return from.Add(dir.Scale(along))
}
