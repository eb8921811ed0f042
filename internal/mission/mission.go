// Package mission defines waypoint missions and the Valencia U-space
// scenario the paper flies: ten drones with distinct speeds and payload
// classes crossing a 25 km^2 urban area under a 60-foot ceiling, four of
// them with turning points.
package mission

import (
	"fmt"
	"math"

	"uavres/internal/geo"
	"uavres/internal/mathx"
)

// DroneSpec holds the per-drone physical characteristics that enter the
// inner-bubble formula (Eq. 1): D_o, D_s, and the top speed from which D_m
// is derived.
type DroneSpec struct {
	// Name labels the airframe class.
	Name string
	// DimensionM is D_o — the drone's dimensions including wingspan (m).
	DimensionM float64
	// SafetyDistM is D_s — the manufacturer-recommended safety distance (m).
	SafetyDistM float64
	// MaxSpeedMS is the top speed (m/s) used to compute D_m, the maximum
	// distance covered between two tracking instances.
	MaxSpeedMS float64
}

// Mission is one U-space flight: a drone, a cruise speed, and a waypoint
// route at a fixed altitude in the local NED frame.
type Mission struct {
	// ID is the 1-based mission number (1..10 in the scenario).
	ID int
	// Name is a human-readable route label.
	Name string
	// Drone describes the airframe flying the mission.
	Drone DroneSpec
	// CruiseSpeedMS is the assigned cruise speed (m/s).
	CruiseSpeedMS float64
	// AltitudeM is the cruise altitude above ground (positive up).
	AltitudeM float64
	// Start is the launch point (NED, on the ground: Z = 0).
	Start mathx.Vec3
	// Waypoints are the cruise-altitude route points (NED).
	Waypoints []mathx.Vec3
	// HasTurns reports whether the route includes turning points.
	HasTurns bool
}

// Validate reports whether the mission is well-formed and inside the
// scenario envelope (the 60 ft ceiling).
func (m Mission) Validate() error {
	if m.CruiseSpeedMS <= 0 {
		return fmt.Errorf("mission %d: non-positive cruise speed", m.ID)
	}
	if len(m.Waypoints) == 0 {
		return fmt.Errorf("mission %d: no waypoints", m.ID)
	}
	ceiling := geo.FeetToMeters(60)
	if m.AltitudeM <= 0 || m.AltitudeM > ceiling {
		return fmt.Errorf("mission %d: altitude %.1f outside (0, %.1f]", m.ID, m.AltitudeM, ceiling)
	}
	for i, wp := range m.Waypoints {
		if math.Abs(-wp.Z-m.AltitudeM) > 1e-6 {
			return fmt.Errorf("mission %d: waypoint %d altitude %.1f != %.1f", m.ID, i, -wp.Z, m.AltitudeM)
		}
	}
	if m.Drone.MaxSpeedMS < m.CruiseSpeedMS {
		return fmt.Errorf("mission %d: cruise %.1f exceeds drone top speed %.1f",
			m.ID, m.CruiseSpeedMS, m.Drone.MaxSpeedMS)
	}
	return nil
}

// PathLength returns the cruise-path length (m) from above the start point
// through all waypoints.
func (m Mission) PathLength() float64 {
	prev := mathx.V3(m.Start.X, m.Start.Y, -m.AltitudeM)
	var total float64
	for _, wp := range m.Waypoints {
		total += prev.Dist(wp)
		prev = wp
	}
	return total
}

// PlannedDuration estimates the nominal mission time: vertical takeoff and
// landing at the given rates plus cruise along the path.
func (m Mission) PlannedDuration(climbRate, descendRate float64) float64 {
	if climbRate <= 0 {
		climbRate = 1.5
	}
	if descendRate <= 0 {
		descendRate = 1.0
	}
	return m.AltitudeM/climbRate + m.PathLength()/m.CruiseSpeedMS + m.AltitudeM/descendRate
}

// CrossTrackDistance returns the distance from p to the nearest point of
// the planned 3D route (takeoff column, cruise legs, and landing column
// included). Bubble violations are deviations beyond the bubble radius
// from this assigned volume. The route is walked in place: the bubble
// tracker calls this on every observation, so it must not allocate.
func (m Mission) CrossTrackDistance(p mathx.Vec3) float64 {
	// Takeoff column from start to cruise altitude.
	liftTop := mathx.V3(m.Start.X, m.Start.Y, -m.AltitudeM)
	best := distToSegment(p, m.Start, liftTop)
	// Cruise legs: liftTop → each waypoint in turn.
	last := liftTop
	for _, wp := range m.Waypoints {
		best = math.Min(best, distToSegment(p, last, wp))
		last = wp
	}
	// Landing column under the final waypoint.
	ground := mathx.V3(last.X, last.Y, 0)
	best = math.Min(best, distToSegment(p, last, ground))
	return best
}

// distToSegment returns the distance from p to segment [a, b].
func distToSegment(p, a, b mathx.Vec3) float64 {
	ab := b.Sub(a)
	denom := ab.NormSq()
	//lint:allow floatcmp exact zero guard for degenerate (zero-length) segments
	if denom == 0 {
		return p.Dist(a)
	}
	t := mathx.Clamp(p.Sub(a).Dot(ab)/denom, 0, 1)
	return p.Dist(a.Add(ab.Scale(t)))
}

// KmhToMs converts km/h (the paper's speed unit) to m/s.
func KmhToMs(kmh float64) float64 { return kmh / 3.6 }
