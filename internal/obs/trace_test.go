package obs

import (
	"encoding/json"
	"testing"
)

func TestTraceBufferOrderAndEviction(t *testing.T) {
	b := NewTraceBuffer(3)
	for i := 1; i <= 5; i++ {
		b.Append(Event{T: float64(i), Kind: EventPhase})
	}
	if b.Len() != 3 {
		t.Errorf("len = %d, want 3", b.Len())
	}
	if b.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", b.Dropped())
	}
	ev := b.Events()
	for i, wantT := range []float64{3, 4, 5} {
		if ev[i].T != wantT {
			t.Errorf("event %d at t=%v, want %v (all: %v)", i, ev[i].T, wantT, ev)
		}
	}
}

func TestTraceSnapshotIsIndependent(t *testing.T) {
	b := NewTraceBuffer(4)
	b.Append(Event{T: 1, Kind: EventInjectStart, Detail: "gyro"})
	b.Append(Event{T: 2, Kind: EventGateReject, Detail: "gps", Value: 4.2})
	snap := b.Snapshot()

	b.Append(Event{T: 3, Kind: EventCrash})

	fork := NewTraceBuffer(4)
	fork.Restore(snap)
	if fork.Len() != 2 {
		t.Fatalf("fork len = %d, want 2", fork.Len())
	}
	ev := fork.Events()
	if ev[1].Kind != EventGateReject || ev[1].Detail != "gps" || ev[1].Value != 4.2 {
		t.Errorf("fork event 1 = %+v", ev[1])
	}
	fork.Append(Event{T: 9, Kind: EventComplete})
	if b.Len() != 3 {
		t.Errorf("fork append changed source (len=%d)", b.Len())
	}
}

func TestTraceRestoreCarriesDropped(t *testing.T) {
	b := NewTraceBuffer(2)
	for i := 0; i < 5; i++ {
		b.Append(Event{T: float64(i), Kind: EventPhase})
	}
	snap := b.Snapshot() // 2 retained, 3 dropped

	fork := NewTraceBuffer(2)
	fork.Restore(snap)
	if fork.Dropped() != 3 {
		t.Errorf("fork dropped = %d, want 3", fork.Dropped())
	}
}

func TestCountByKind(t *testing.T) {
	b := NewTraceBuffer(8)
	b.Append(Event{Kind: EventPhase})
	b.Append(Event{Kind: EventPhase})
	b.Append(Event{Kind: EventFailsafe})
	got := b.CountByKind()
	if got["phase"] != 2 || got["failsafe"] != 1 {
		t.Errorf("CountByKind = %v", got)
	}
}

func TestEventKindJSONRoundTrip(t *testing.T) {
	for k := EventPhase; k <= EventComplete; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var bad EventKind
	if err := json.Unmarshal([]byte(`"warp_drive"`), &bad); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestEventJSONShape(t *testing.T) {
	e := Event{T: 91.5, Kind: EventInnerViolation, Detail: "inner", Value: 2.5}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"t":91.5,"kind":"inner_violation","detail":"inner","value":2.5}`
	if string(data) != want {
		t.Errorf("event JSON = %s, want %s", data, want)
	}
	var back Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Errorf("round trip = %+v", back)
	}
	// An event decoded without a kind re-encodes without one.
	if data, _ := json.Marshal(Event{T: 1}); string(data) != `{"t":1}` {
		t.Errorf("kindless event JSON = %s", data)
	}
}
