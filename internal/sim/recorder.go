package sim

import (
	"uavres/internal/ekf"
	"uavres/internal/obs"
)

// phaseCount covers the flightPhase values 1..4 (takeoff..done).
const phaseCount = 4

var phaseNames = [phaseCount]string{"takeoff", "cruise", "land", "done"}

// BlackBoxTailSec is the black-box window: how many trailing seconds of
// tracking observations the recorder retains for post-crash dumps. It is
// a package constant, not a Config field, because spec.Fingerprint
// hashes the full Config — a tunable here would invalidate every case
// hash and resume cache in existence.
const BlackBoxTailSec = 30

// DefaultTraceCapacity is the size of the recorder's event ring: large
// enough for every event of a nominal flight, small enough that a
// campaign's 850 diagnostics blocks stay light. Like BlackBoxTailSec it
// is a constant, not a Config field, so it never enters a case
// fingerprint.
const DefaultTraceCapacity = 64

// blackBoxTailCap sizes the tail ring: tracking runs at 1 Hz (the
// u-space default), so the window plus one boundary observation.
const blackBoxTailCap = BlackBoxTailSec + 1

// recorder is the vehicle's flight-data recorder, updated from inside the
// step loop: rising-edge latches (trace events fire on streak starts, not
// every instant), first-occurrence timestamps (-1 until seen), the
// counters and tilt maximum the diagnostics block reports, the trace
// event ring and the black-box tail ring. Every field is a plain value
// and both rings are fixed arrays, so updates never allocate and a
// checkpoint captures the recorder by struct copy — forks stay
// bit-identical to straight-through runs. It is driven exclusively by sim
// time, never the wall clock.
type recorder struct {
	lastPhase       flightPhase
	injActive       bool
	innerActive     bool
	outerActive     bool
	gpsStreak       bool
	baroStreak      bool
	prevGPSRejects  int64
	prevBaroRejects int64
	prevResets      int
	prevStuck       bool
	firstInnerT     float64
	firstOuterT     float64
	distFirstOuterM float64

	switches    int64
	mitigations int64
	maxTilt     float64

	// Trace event ring (oldest at evStart when full); evDropped counts
	// evictions.
	events    [DefaultTraceCapacity]obs.Event
	evStart   int
	evN       int
	evDropped int64

	// Black-box tail ring (oldest at tailStart when full).
	tail      [blackBoxTailCap]TrajPoint
	tailStart int
	tailN     int
}

// newRecorder seeds the first-occurrence timestamps as "never".
func newRecorder() recorder {
	return recorder{firstInnerT: -1, firstOuterT: -1, distFirstOuterM: -1}
}

// trace appends one event, evicting (and counting) the oldest once the
// ring is full.
func (r *recorder) trace(e obs.Event) {
	if r.evN < DefaultTraceCapacity {
		r.events[(r.evStart+r.evN)%DefaultTraceCapacity] = e
		r.evN++
		return
	}
	r.events[r.evStart] = e
	r.evStart = (r.evStart + 1) % DefaultTraceCapacity
	r.evDropped++
}

// traceEvents returns the retained events oldest-first (a fresh slice).
func (r *recorder) traceEvents() []obs.Event {
	out := make([]obs.Event, r.evN)
	for i := range out {
		out[i] = r.events[(r.evStart+i)%DefaultTraceCapacity]
	}
	return out
}

// traceSummary tallies retained events per kind name.
func (r *recorder) traceSummary() map[string]int {
	out := map[string]int{}
	for i := 0; i < r.evN; i++ {
		out[r.events[(r.evStart+i)%DefaultTraceCapacity].Kind.String()]++
	}
	return out
}

// onPhase emits a trace event when the guidance phase changes.
func (r *recorder) onPhase(t float64, p flightPhase) {
	if p == r.lastPhase {
		return
	}
	r.lastPhase = p
	detail := p.label()
	if p >= 1 && int(p) <= phaseCount {
		detail = phaseNames[p-1]
	}
	r.trace(obs.Event{T: t, Kind: obs.EventPhase, Detail: detail})
}

// onInjection tracks the fault window's edges.
func (r *recorder) onInjection(t float64, active bool) {
	if active == r.injActive {
		return
	}
	r.injActive = active
	kind := obs.EventInjectEnd
	if active {
		kind = obs.EventInjectStart
	}
	r.trace(obs.Event{T: t, Kind: kind})
}

// onMitigation tracks the stuck-sensor latch's rising edge.
func (r *recorder) onMitigation(t float64, stuck bool) {
	if stuck && !r.prevStuck {
		r.mitigations++
		r.trace(obs.Event{T: t, Kind: obs.EventMitigation})
	}
	r.prevStuck = stuck
}

// onRotorReconfig records the rotor-FDI monitor condemning a rotor — an
// actuator-side mitigation engagement, traced under the same counter and
// event kind as the sensor pipeline's latches.
func (r *recorder) onRotorReconfig(t float64) {
	r.mitigations++
	r.trace(obs.Event{T: t, Kind: obs.EventMitigation, Detail: "rotor-reconfig"})
}

// onSensorSwitch records redundancy management switching the primary IMU.
func (r *recorder) onSensorSwitch(t float64) {
	r.switches++
	r.trace(obs.Event{T: t, Kind: obs.EventSensorSwitch})
}

// afterGPS traces the first rejection of a GPS gate-rejection streak
// (the filter's health report counts every rejection).
func (r *recorder) afterGPS(t float64, h ekf.Health) {
	rejected := h.GPSGateRejects > r.prevGPSRejects
	r.prevGPSRejects = h.GPSGateRejects
	if rejected && !r.gpsStreak {
		r.trace(obs.Event{T: t, Kind: obs.EventGateReject, Detail: "gps", Value: h.LastGPSRatio})
	}
	r.gpsStreak = rejected
	r.onResets(t, h)
}

// afterBaro mirrors afterGPS for the barometer aiding path.
func (r *recorder) afterBaro(t float64, h ekf.Health) {
	rejected := h.BaroGateRejects > r.prevBaroRejects
	r.prevBaroRejects = h.BaroGateRejects
	if rejected && !r.baroStreak {
		r.trace(obs.Event{T: t, Kind: obs.EventGateReject, Detail: "baro", Value: h.LastBaroRatio})
	}
	r.baroStreak = rejected
	r.onResets(t, h)
}

// onResets detects filter reset-on-timeout events from the health report.
func (r *recorder) onResets(t float64, h ekf.Health) {
	if h.Resets > r.prevResets {
		r.prevResets = h.Resets
		r.trace(obs.Event{T: t, Kind: obs.EventEKFReset})
	}
}

// onTilt keeps the running tilt maximum (50 Hz monitor rate). The negated
// comparison lets a NaN through, exactly as obs.Gauge.Max does.
func (r *recorder) onTilt(tiltDeg float64) {
	if !(r.maxTilt >= tiltDeg) {
		r.maxTilt = tiltDeg
	}
}

// onTrack folds one tracking observation: bubble-violation rising edges,
// first-violation timestamps, and the distance flown when the outer bubble
// was first broken. distM is the tracker's distance estimate so far.
func (r *recorder) onTrack(t float64, innerViolated, outerViolated bool, distM float64) {
	if innerViolated {
		if !r.innerActive {
			r.trace(obs.Event{T: t, Kind: obs.EventInnerViolation})
		}
		if r.firstInnerT < 0 {
			r.firstInnerT = t
		}
	}
	r.innerActive = innerViolated
	if outerViolated {
		if !r.outerActive {
			r.trace(obs.Event{T: t, Kind: obs.EventOuterViolation})
		}
		if r.firstOuterT < 0 {
			r.firstOuterT = t
			r.distFirstOuterM = distM
		}
	}
	r.outerActive = outerViolated
}

// onTailPoint folds one tracking observation into the black-box ring,
// evicting the oldest point once the window is full.
func (r *recorder) onTailPoint(p TrajPoint) {
	if r.tailN < blackBoxTailCap {
		r.tail[(r.tailStart+r.tailN)%blackBoxTailCap] = p
		r.tailN++
		return
	}
	r.tail[r.tailStart] = p
	r.tailStart = (r.tailStart + 1) % blackBoxTailCap
}

// tailPoints returns the retained tail oldest-first (nil when empty).
func (r *recorder) tailPoints() []TrajPoint {
	if r.tailN == 0 {
		return nil
	}
	out := make([]TrajPoint, r.tailN)
	for i := range out {
		out[i] = r.tail[(r.tailStart+i)%blackBoxTailCap]
	}
	return out
}

// onOutcome records the terminal event. detail must be a pre-built string
// (outcome paths run once, so this is off the hot path anyway).
func (r *recorder) onOutcome(t float64, kind obs.EventKind, detail string) {
	r.trace(obs.Event{T: t, Kind: kind, Detail: detail})
}

// diagnostics assembles the per-case diagnostics block from the recorder
// and the filter's health report. withTail attaches the black-box
// trajectory ring (crash/violation flights only — see finalize). It reads but
// never mutates state, so finalize stays safe to call repeatedly.
func (r *recorder) diagnostics(h ekf.Health, withTail bool) *Diagnostics {
	distKm := -1.0
	if r.distFirstOuterM >= 0 {
		distKm = r.distFirstOuterM / 1000
	}
	d := &Diagnostics{
		FirstInnerViolationSec: r.firstInnerT,
		FirstOuterViolationSec: r.firstOuterT,
		DistanceAtFirstOuterKm: distKm,
		MaxTiltDeg:             r.maxTilt,
		GPSFusions:             h.GPSFusions,
		GPSGateRejects:         h.GPSGateRejects,
		BaroFusions:            h.BaroFusions,
		BaroGateRejects:        h.BaroGateRejects,
		MaxGPSRatio:            h.MaxGPSRatio,
		MaxBaroRatio:           h.MaxBaroRatio,
		EKFResets:              h.Resets,
		SensorSwitches:         r.switches,
		MitigationEngagements:  r.mitigations,
		Trace:                  r.traceEvents(),
		TraceDropped:           r.evDropped,
		TraceSummary:           r.traceSummary(),
	}
	if withTail {
		d.TrajectoryTail = r.tailPoints()
	}
	return d
}
