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
