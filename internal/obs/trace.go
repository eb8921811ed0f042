package obs

import (
	"encoding/json"
	"fmt"
)

// EventKind classifies a trace event. The taxonomy covers the flight
// lifecycle transitions the campaign's diagnostics care about; kinds are
// serialized by name so logs stay readable if the enum grows.
type EventKind uint8

// The trace-event taxonomy.
const (
	// EventPhase marks a guidance phase transition (Detail: new phase).
	EventPhase EventKind = iota + 1
	// EventInjectStart and EventInjectEnd bracket the fault window.
	EventInjectStart
	EventInjectEnd
	// EventInnerViolation and EventOuterViolation mark the tracking
	// instant a bubble excursion starts (rising edge; Value: deviation m).
	EventInnerViolation
	EventOuterViolation
	// EventMitigation marks the mitigation pipeline latching a stuck
	// sensor.
	EventMitigation
	// EventFailsafe marks flight termination (Detail: cause).
	EventFailsafe
	// EventGateReject marks the start of an EKF innovation-gate rejection
	// streak (Detail: aiding source; Value: worst test ratio).
	EventGateReject
	// EventSensorSwitch marks redundancy management switching the primary
	// IMU unit.
	EventSensorSwitch
	// EventEKFReset marks a filter reset-on-timeout.
	EventEKFReset
	// EventCrash marks crash detection (Detail: reason).
	EventCrash
	// EventComplete marks mission completion.
	EventComplete
)

var eventKindNames = map[EventKind]string{
	EventPhase:          "phase",
	EventInjectStart:    "inject_start",
	EventInjectEnd:      "inject_end",
	EventInnerViolation: "inner_violation",
	EventOuterViolation: "outer_violation",
	EventMitigation:     "mitigation",
	EventFailsafe:       "failsafe",
	EventGateReject:     "gate_reject",
	EventSensorSwitch:   "sensor_switch",
	EventEKFReset:       "ekf_reset",
	EventCrash:          "crash",
	EventComplete:       "complete",
}

var eventKindValues = func() map[string]EventKind {
	m := make(map[string]EventKind, len(eventKindNames))
	for k, n := range eventKindNames {
		m[n] = k
	}
	return m
}()

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if n, known := eventKindNames[k]; known {
		return n
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// MarshalJSON serializes the kind by name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind name (round-tripping campaign results).
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, known := eventKindValues[s]
	if !known {
		return fmt.Errorf("obs: unknown event kind %q", s)
	}
	*k = v
	return nil
}

// Event is one timestamped trace record. Detail must be a static or
// pre-built string on hot paths (no formatting at append time); Value
// carries an optional kind-specific quantity. The zero Kind, which only
// an event decoded without a kind has, is omitted so it decodes back.
type Event struct {
	T      float64   `json:"t"`
	Kind   EventKind `json:"kind,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Value  float64   `json:"value,omitempty"`
}

// DefaultTraceCapacity is the ring size a zero-configured buffer gets:
// large enough for every event of a nominal flight, small enough that a
// campaign's 850 diagnostics blocks stay light.
const DefaultTraceCapacity = 64

// TraceBuffer is a fixed-capacity ring of events. Append never allocates;
// once full, the oldest event is evicted and counted in Dropped. Not safe
// for concurrent use: each vehicle owns one (like the filter and body).
type TraceBuffer struct {
	buf     []Event
	start   int
	n       int
	dropped int64
}

// NewTraceBuffer returns a ring holding up to capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceBuffer{buf: make([]Event, capacity)}
}

// Append records one event.
func (b *TraceBuffer) Append(e Event) {
	if b.n < len(b.buf) {
		b.buf[(b.start+b.n)%len(b.buf)] = e
		b.n++
		return
	}
	b.buf[b.start] = e
	b.start = (b.start + 1) % len(b.buf)
	b.dropped++
}

// Len returns the number of retained events.
func (b *TraceBuffer) Len() int { return b.n }

// Dropped returns how many events were evicted after the ring filled.
func (b *TraceBuffer) Dropped() int64 { return b.dropped }

// Events returns the retained events oldest-first (a fresh slice).
func (b *TraceBuffer) Events() []Event {
	out := make([]Event, b.n)
	for i := 0; i < b.n; i++ {
		out[i] = b.buf[(b.start+i)%len(b.buf)]
	}
	return out
}

// CountByKind tallies retained events per kind name (the diagnostics
// trace summary).
func (b *TraceBuffer) CountByKind() map[string]int {
	out := map[string]int{}
	for i := 0; i < b.n; i++ {
		out[b.buf[(b.start+i)%len(b.buf)].Kind.String()]++
	}
	return out
}

// TraceSnapshot is a deep copy of a TraceBuffer's state.
type TraceSnapshot struct {
	events  []Event
	dropped int64
}

// Snapshot deep-copies the buffer state; the snapshot stays valid while
// the source keeps appending.
func (b *TraceBuffer) Snapshot() TraceSnapshot {
	return TraceSnapshot{events: b.Events(), dropped: b.dropped}
}

// Restore reinstates a snapshot (the buffer keeps its own capacity; if
// the snapshot holds more events than fit, the oldest are dropped, exactly
// as if they had been appended live).
func (b *TraceBuffer) Restore(s TraceSnapshot) {
	b.start, b.n, b.dropped = 0, 0, 0
	for _, e := range s.events {
		b.Append(e)
	}
	b.dropped += s.dropped
}
