// Package bubble implements the paper's two-layer virtual bubble for
// U-space separation management: a static inner alert bubble (Eq. 1) and a
// dynamic outer safety bubble (Eqs. 2-3), plus the tracker-rate violation
// counting used as the study's primary safety metrics.
//
// A violation is recorded when the drone's estimated position deviates
// from its assigned flight volume (the planned route) by more than the
// bubble radius at a tracking instant.
package bubble

import (
	"fmt"
	"math"

	"uavres/internal/mathx"
	"uavres/internal/mission"
)

// DefaultTrackingInterval is the U-space tracker sampling period (s).
const DefaultTrackingInterval = 1.0

// InnerRadius computes Eq. 1:
//
//	Bubble_inner = D_o + max(D_s, D_m)
//
// where D_m is the maximum distance the drone can cover at top speed
// between two tracking instances. All inputs are meters and seconds.
func InnerRadius(spec mission.DroneSpec, trackingInterval float64) float64 {
	if trackingInterval <= 0 {
		trackingInterval = DefaultTrackingInterval
	}
	dm := spec.MaxSpeedMS * trackingInterval
	return spec.DimensionM + math.Max(spec.SafetyDistM, dm)
}

// Outer computes the dynamic outer safety bubble.
type Outer struct {
	// R is the airspace risk factor (>= 1; the paper uses 1).
	R float64

	inner        float64
	prevAirspeed float64
	prevDist     float64
	primed       bool
	lastRadius   float64
}

// NewOuter returns an outer-bubble calculator over the given inner radius.
// R values below 1 are raised to 1, matching the paper's constraint.
func NewOuter(innerRadius, riskR float64) (Outer, error) {
	if innerRadius <= 0 {
		return Outer{}, fmt.Errorf("bubble: non-positive inner radius %v", innerRadius)
	}
	if riskR < 1 {
		riskR = 1
	}
	return Outer{R: riskR, inner: innerRadius, lastRadius: innerRadius * riskR}, nil
}

// Update advances the dynamic bubble with the current airspeed and the
// distance covered since the previous tracking instant, returning the new
// outer radius. Eq. 2 anticipates the next interval's travel from the
// airspeed ratio; Eq. 3 scales the inner radius by that anticipation
// (floored at 1) and by R. The inner radius is always the minimum.
func (o *Outer) Update(airspeedMS, distCoveredM float64) float64 {
	anticipated := distCoveredM
	if o.primed && o.prevAirspeed > 0.1 {
		anticipated = o.prevDist * (airspeedMS / o.prevAirspeed) // Eq. 2
	}
	if math.IsNaN(anticipated) || math.IsInf(anticipated, 0) || anticipated < 0 {
		anticipated = 0
	}
	o.prevAirspeed = airspeedMS
	o.prevDist = distCoveredM
	o.primed = true

	o.lastRadius = o.R * o.inner * math.Max(1, anticipated) // Eq. 3
	return o.lastRadius
}

// Radius returns the most recently computed outer radius.
func (o *Outer) Radius() float64 { return o.lastRadius }

// Inner returns the static inner radius the outer bubble wraps.
func (o *Outer) Inner() float64 { return o.inner }

// Sample is one tracking observation with the bubble state at that instant.
type Sample struct {
	// T is the tracking timestamp (s).
	T float64
	// Deviation is the distance from the assigned flight volume (m).
	Deviation float64
	// InnerRadius and OuterRadius are the bubble radii at this instant.
	InnerRadius float64
	OuterRadius float64
	// InnerViolated and OuterViolated flag bubble excursions.
	InnerViolated bool
	OuterViolated bool
}

// Tracker samples a drone's deviation from its mission volume at the
// U-space tracking cadence and counts bubble violations.
type Tracker struct {
	mission  mission.Mission
	inner    float64
	outer    Outer
	interval float64

	next       float64
	prevPos    mathx.Vec3
	havePrev   bool
	innerViol  int
	outerViol  int
	samples    int
	lastSample Sample
}

// NewTracker returns a tracker for one mission with the given risk factor.
func NewTracker(m mission.Mission, riskR, interval float64) (Tracker, error) {
	if err := m.Validate(); err != nil {
		return Tracker{}, fmt.Errorf("bubble: %w", err)
	}
	if interval <= 0 {
		interval = DefaultTrackingInterval
	}
	inner := InnerRadius(m.Drone, interval)
	outer, err := NewOuter(inner, riskR)
	if err != nil {
		return Tracker{}, err
	}
	return Tracker{mission: m, inner: inner, outer: outer, interval: interval}, nil
}

// InnerRadius returns the mission's static inner bubble radius.
func (tr *Tracker) InnerRadius() float64 { return tr.inner }

// Due reports whether a tracking instant is due at sim time t without
// advancing the tracking clock (Observe advances it). The sim loop uses it
// to skip preparing observation inputs between tracking instants.
func (tr *Tracker) Due(t float64) bool { return t+1e-9 >= tr.next }

// Observe feeds the drone's estimated position and airspeed at sim time t.
// It samples at the tracking cadence and returns the sample when one was
// taken (ok=false between tracking instants).
func (tr *Tracker) Observe(t float64, estPos mathx.Vec3, airspeedMS float64) (Sample, bool) {
	if t+1e-9 < tr.next {
		return Sample{}, false
	}
	tr.next = t + tr.interval

	dist := 0.0
	if tr.havePrev {
		dist = estPos.Dist(tr.prevPos)
	}
	tr.prevPos = estPos
	tr.havePrev = true

	outerR := tr.outer.Update(airspeedMS, dist)
	dev := tr.mission.CrossTrackDistance(estPos)

	s := Sample{
		T:           t,
		Deviation:   dev,
		InnerRadius: tr.inner,
		OuterRadius: outerR,
	}
	if dev > tr.inner {
		s.InnerViolated = true
		tr.innerViol++
	}
	if dev > outerR {
		s.OuterViolated = true
		tr.outerViol++
	}
	tr.samples++
	tr.lastSample = s
	return s, true
}

// InnerViolations returns the number of inner-bubble violations so far.
func (tr *Tracker) InnerViolations() int { return tr.innerViol }

// OuterViolations returns the number of outer-bubble violations so far.
func (tr *Tracker) OuterViolations() int { return tr.outerViol }

// Samples returns how many tracking instants were observed.
func (tr *Tracker) Samples() int { return tr.samples }

// Last returns the most recent sample (zero value before the first).
func (tr *Tracker) Last() Sample { return tr.lastSample }
