package obs

import (
	"encoding/json"
	"testing"
)

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
