package uspace

import (
	"reflect"
	"testing"

	"uavres/internal/mathx"
	"uavres/internal/telemetry"
)

func TestTrackerMaintainsStates(t *testing.T) {
	tr := NewTracker()
	tr.ReportPosition(1, 10, mathx.V3(100, 0, -15), mathx.V3(3, 0, 0))
	tr.ReportPosition(2, 10, mathx.V3(500, 500, -15), mathx.Zero3)
	tr.ReportBubble(1, 10, 5, 6, false, false)

	drones := tr.Drones()
	if len(drones) != 2 {
		t.Fatalf("drones = %d", len(drones))
	}
	if drones[0].SysID != 1 || drones[1].SysID != 2 {
		t.Errorf("order: %d, %d", drones[0].SysID, drones[1].SysID)
	}
	d1, exists := tr.Drone(1)
	if !exists || d1.Pos != mathx.V3(100, 0, -15) || d1.InnerRadius != 5 {
		t.Errorf("drone 1 = %+v", d1)
	}
	if _, exists := tr.Drone(99); exists {
		t.Error("phantom drone tracked")
	}
}

func TestBubbleViolationAccumulation(t *testing.T) {
	tr := NewTracker()
	tr.ReportBubble(3, 1, 5, 6, true, false)
	tr.ReportBubble(3, 2, 5, 6, true, true)
	tr.ReportBubble(3, 3, 5, 6, false, false)
	d, _ := tr.Drone(3)
	if d.InnerViolations != 2 || d.OuterViolations != 1 {
		t.Errorf("violations = %d/%d, want 2/1", d.InnerViolations, d.OuterViolations)
	}
}

func TestSeparationConflictDetected(t *testing.T) {
	tr := NewTracker()
	tr.ReportBubble(1, 10, 5, 8, false, false)
	tr.ReportBubble(2, 10, 5, 8, false, false)
	tr.ReportPosition(1, 10, mathx.V3(0, 0, -15), mathx.Zero3)
	// 12 m apart with 8+8=16 m required: outer conflict, not critical.
	tr.ReportPosition(2, 10.2, mathx.V3(12, 0, -15), mathx.Zero3)

	conflicts := tr.Conflicts()
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(conflicts))
	}
	c := conflicts[0]
	if c.A != 1 || c.B != 2 || c.Critical {
		t.Errorf("conflict = %+v", c)
	}
	if c.DistanceM != 12 || c.RequiredM != 16 {
		t.Errorf("distances = %v/%v", c.DistanceM, c.RequiredM)
	}
}

func TestCriticalConflict(t *testing.T) {
	tr := NewTracker()
	tr.ReportBubble(1, 10, 5, 8, false, false)
	tr.ReportBubble(2, 10, 5, 8, false, false)
	tr.ReportPosition(1, 10, mathx.Zero3, mathx.Zero3)
	tr.ReportPosition(2, 10.1, mathx.V3(6, 0, 0), mathx.Zero3) // < 5+5

	conflicts := tr.Conflicts()
	if len(conflicts) != 1 || !conflicts[0].Critical {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	if conflicts[0].RequiredM != 10 {
		t.Errorf("critical required = %v, want inner sum 10", conflicts[0].RequiredM)
	}
}

func TestNoConflictWhenSeparated(t *testing.T) {
	tr := NewTracker()
	tr.ReportBubble(1, 10, 5, 8, false, false)
	tr.ReportBubble(2, 10, 5, 8, false, false)
	tr.ReportPosition(1, 10, mathx.Zero3, mathx.Zero3)
	tr.ReportPosition(2, 10, mathx.V3(100, 0, 0), mathx.Zero3)
	if got := tr.Conflicts(); len(got) != 0 {
		t.Errorf("conflicts = %+v", got)
	}
}

func TestConflictDeduplicatedPerSecond(t *testing.T) {
	tr := NewTracker()
	tr.ReportBubble(1, 10, 5, 8, false, false)
	tr.ReportBubble(2, 10, 5, 8, false, false)
	// Several sub-second reports of the same infringement.
	for _, tm := range []float64{10.0, 10.2, 10.4, 10.6} {
		tr.ReportPosition(1, tm, mathx.Zero3, mathx.Zero3)
		tr.ReportPosition(2, tm, mathx.V3(10, 0, 0), mathx.Zero3)
	}
	if got := len(tr.Conflicts()); got != 1 {
		t.Errorf("conflicts = %d, want 1 (deduplicated)", got)
	}
	// After a second, the persisting conflict is recorded again.
	tr.ReportPosition(1, 11.2, mathx.Zero3, mathx.Zero3)
	if got := len(tr.Conflicts()); got != 2 {
		t.Errorf("conflicts = %d, want 2", got)
	}
}

func TestStaleTracksIgnored(t *testing.T) {
	tr := NewTracker()
	tr.ReportBubble(1, 10, 5, 8, false, false)
	tr.ReportBubble(2, 10, 5, 8, false, false)
	tr.ReportPosition(1, 10, mathx.Zero3, mathx.Zero3)
	// Drone 2 reports 100 s later at the same spot: drone 1's track is
	// long stale; no conflict can be concluded.
	tr.ReportPosition(2, 110, mathx.V3(3, 0, 0), mathx.Zero3)
	if got := tr.Conflicts(); len(got) != 0 {
		t.Errorf("conflicts with stale track = %+v", got)
	}
}

func TestZeroBubblesNeverConflict(t *testing.T) {
	tr := NewTracker()
	// No bubble reports: radii zero, separation undefined.
	tr.ReportPosition(1, 10, mathx.Zero3, mathx.Zero3)
	tr.ReportPosition(2, 10, mathx.V3(0.5, 0, 0), mathx.Zero3)
	if got := tr.Conflicts(); len(got) != 0 {
		t.Errorf("conflicts without bubbles = %+v", got)
	}
}

// TestConflictOrderIsDeterministic: when one position report conflicts
// with several drones, the conflicts are recorded in ascending SysID
// order, whatever order the drones first appeared in. The same reports
// go to many fresh trackers; every conflict list must be identical.
func TestConflictOrderIsDeterministic(t *testing.T) {
	feed := func(tr *Tracker) {
		// Three drones far apart; drone 3 appears first.
		for _, id := range []uint8{3, 2, 1} {
			tr.ReportBubble(id, 10, 5, 8, false, false)
		}
		tr.ReportPosition(3, 10, mathx.V3(0, 100, 0), mathx.Zero3)
		tr.ReportPosition(2, 10, mathx.V3(100, 0, 0), mathx.Zero3)
		tr.ReportPosition(1, 10, mathx.Zero3, mathx.Zero3)
		// They converge: drone 2 closes on drone 1, then drone 3's one
		// report conflicts with both.
		tr.ReportPosition(2, 11, mathx.V3(6, 0, 0), mathx.Zero3)
		tr.ReportPosition(3, 11, mathx.V3(0, 6, 0), mathx.Zero3)
	}
	want := [][2]uint8{{1, 2}, {1, 3}, {2, 3}}
	var first []Conflict
	for i := 0; i < 50; i++ {
		tr := NewTracker()
		feed(tr)
		got := tr.Conflicts()
		if i == 0 {
			first = got
			var pairs [][2]uint8
			for _, c := range got {
				pairs = append(pairs, [2]uint8{c.A, c.B})
			}
			if !reflect.DeepEqual(pairs, want) {
				t.Fatalf("conflict pairs %v, want %v", pairs, want)
			}
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("tracker %d: conflicts %+v, first tracker %+v", i, got, first)
		}
	}
}

// TestIngestFeedsTracker: position and bubble frames update the sender's
// track; an unknown message ID or a malformed payload returns an error
// and creates no track.
func TestIngestFeedsTracker(t *testing.T) {
	tr := NewTracker()
	for _, f := range []telemetry.Frame{
		telemetry.EncodePosition(0, 7, telemetry.Position{TimeSec: 5, X: 10, Y: 20, Z: -15}),
		telemetry.EncodeBubble(1, 7, telemetry.Bubble{TimeSec: 5, InnerRadiusM: 5, OuterRadiusM: 6, InnerViolated: true}),
	} {
		if err := tr.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	d, exists := tr.Drone(7)
	if !exists {
		t.Fatal("drone 7 not tracked")
	}
	if d.Pos.X != 10 || d.InnerRadius != 5 || d.InnerViolations != 1 {
		t.Errorf("tracked state = %+v", d)
	}

	for _, bad := range []telemetry.Frame{
		{SysID: 9, MsgID: 0, Payload: make([]byte, 9)},
		{SysID: 9, MsgID: telemetry.MsgPosition, Payload: []byte{1, 2, 3}},
		{SysID: 9, MsgID: telemetry.MsgBubble, Payload: []byte{1, 2, 3}},
	} {
		if err := tr.Ingest(bad); err == nil {
			t.Errorf("frame %+v accepted", bad)
		}
	}
	if _, exists := tr.Drone(9); exists {
		t.Error("rejected frame created a track")
	}
}
