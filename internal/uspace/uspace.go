// Package uspace implements the U-space-side tracking service: it
// ingests telemetry position and bubble frames, keeps the last known
// state of every drone in the airspace, and monitors pairwise separation
// using the two-layer bubble model — the "tracker" box of the paper's
// platform (Fig. 1) and the conflict-rate machinery of the authors'
// companion study. A Tracker is single-threaded: one caller feeds it and
// queries it.
package uspace

import (
	"fmt"

	"uavres/internal/mathx"
	"uavres/internal/telemetry"
)

// DroneState is the tracker's last known state for one drone.
type DroneState struct {
	// SysID identifies the drone (mission number).
	SysID uint8
	// TimeSec is the report timestamp.
	TimeSec float64
	// Pos and Vel are the reported NED position and velocity.
	Pos mathx.Vec3
	Vel mathx.Vec3
	// InnerRadius and OuterRadius are the drone's current bubble radii
	// (zero until a bubble report arrives).
	InnerRadius float64
	OuterRadius float64
	// InnerViolations and OuterViolations accumulate reported
	// own-volume violations.
	InnerViolations int
	OuterViolations int
	// HasPosition is false until the first position report arrives; a
	// bubble-only track carries no usable location.
	HasPosition bool
}

// Conflict is one pairwise separation infringement: two drones closer
// than the sum of their bubbles.
type Conflict struct {
	A, B      uint8
	TimeSec   float64
	DistanceM float64
	// RequiredM is the separation that should have been kept (sum of
	// outer radii; inner if Severity is SeverityCritical).
	RequiredM float64
	// Critical marks an inner-bubble (alert-layer) infringement.
	Critical bool
}

// Tracker is the U-space tracking/separation service.
type Tracker struct {
	// drones is indexed by SysID, so a scan visits drones in ascending
	// SysID order and conflicts are recorded in a fixed order.
	drones [256]*DroneState
	// conflicts accumulates detected infringements (deduplicated per
	// pair per tracking second).
	conflicts []Conflict
	lastPair  map[[2]uint8]float64
}

// NewTracker returns an empty tracking service.
func NewTracker() *Tracker {
	return &Tracker{lastPair: map[[2]uint8]float64{}}
}

// Ingest decodes one telemetry frame into a position or bubble report.
// A malformed frame or an unknown message ID returns an error and leaves
// the tracker unchanged.
func (tr *Tracker) Ingest(f telemetry.Frame) error {
	switch f.MsgID {
	case telemetry.MsgPosition:
		p, err := telemetry.DecodePosition(f)
		if err != nil {
			return err
		}
		tr.ReportPosition(f.SysID, p.TimeSec, mathx.V3(p.X, p.Y, p.Z), mathx.V3(p.VX, p.VY, p.VZ))
	case telemetry.MsgBubble:
		b, err := telemetry.DecodeBubble(f)
		if err != nil {
			return err
		}
		tr.ReportBubble(f.SysID, b.TimeSec, b.InnerRadiusM, b.OuterRadiusM, b.InnerViolated, b.OuterViolated)
	default:
		return fmt.Errorf("uspace: unknown message ID %d from system %d", f.MsgID, f.SysID)
	}
	return nil
}

// ReportPosition ingests a position report and re-evaluates separation.
func (tr *Tracker) ReportPosition(sysID uint8, timeSec float64, pos, vel mathx.Vec3) {
	d := tr.drone(sysID)
	d.TimeSec = timeSec
	d.Pos = pos
	d.Vel = vel
	d.HasPosition = true
	tr.checkSeparation(d)
}

// ReportBubble ingests a bubble status report.
func (tr *Tracker) ReportBubble(sysID uint8, timeSec float64, innerR, outerR float64, innerViolated, outerViolated bool) {
	d := tr.drone(sysID)
	d.TimeSec = timeSec
	d.InnerRadius = innerR
	d.OuterRadius = outerR
	if innerViolated {
		d.InnerViolations++
	}
	if outerViolated {
		d.OuterViolations++
	}
}

func (tr *Tracker) drone(sysID uint8) *DroneState {
	d := tr.drones[sysID]
	if d == nil {
		d = &DroneState{SysID: sysID}
		tr.drones[sysID] = d
	}
	return d
}

// checkSeparation evaluates the moved drone against every other tracked
// drone, in ascending SysID order.
func (tr *Tracker) checkSeparation(moved *DroneState) {
	for _, other := range tr.drones {
		if other == nil || other.SysID == moved.SysID || !other.HasPosition {
			continue
		}
		// Stale tracks (no report within 5 s of the mover's clock) are
		// not comparable.
		if moved.TimeSec-other.TimeSec > 5 || other.TimeSec-moved.TimeSec > 5 {
			continue
		}
		dist := moved.Pos.Dist(other.Pos)
		outerReq := moved.OuterRadius + other.OuterRadius
		innerReq := moved.InnerRadius + other.InnerRadius
		if outerReq <= 0 || dist >= outerReq {
			continue
		}
		pair := pairKey(moved.SysID, other.SysID)
		// One conflict record per pair per tracking second.
		if last, seen := tr.lastPair[pair]; seen && moved.TimeSec-last < 1 {
			continue
		}
		tr.lastPair[pair] = moved.TimeSec
		c := Conflict{
			A: pair[0], B: pair[1], TimeSec: moved.TimeSec,
			DistanceM: dist, RequiredM: outerReq,
			Critical: innerReq > 0 && dist < innerReq,
		}
		if c.Critical {
			c.RequiredM = innerReq
		}
		tr.conflicts = append(tr.conflicts, c)
	}
}

func pairKey(a, b uint8) [2]uint8 {
	if a > b {
		a, b = b, a
	}
	return [2]uint8{a, b}
}

// Drones returns a copy of every tracked drone, ordered by SysID.
func (tr *Tracker) Drones() []DroneState {
	var out []DroneState
	for _, d := range tr.drones {
		if d != nil {
			out = append(out, *d)
		}
	}
	return out
}

// Drone returns the state for one drone.
func (tr *Tracker) Drone(sysID uint8) (DroneState, bool) {
	d := tr.drones[sysID]
	if d == nil {
		return DroneState{}, false
	}
	return *d, true
}

// Conflicts returns a copy of all recorded separation conflicts, in the
// order they were detected.
func (tr *Tracker) Conflicts() []Conflict {
	return append([]Conflict(nil), tr.conflicts...)
}
