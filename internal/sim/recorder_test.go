package sim

import (
	"reflect"
	"testing"
	"time"

	"uavres/internal/ekf"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/obs"
)

func TestTraceRingOrderAndEviction(t *testing.T) {
	r := newRecorder()
	for i := 1; i <= DefaultTraceCapacity+2; i++ {
		r.trace(obs.Event{T: float64(i), Kind: obs.EventPhase})
	}
	if r.evN != DefaultTraceCapacity {
		t.Errorf("len = %d, want %d", r.evN, DefaultTraceCapacity)
	}
	if r.evDropped != 2 {
		t.Errorf("dropped = %d, want 2", r.evDropped)
	}
	ev := r.traceEvents()
	for i := range ev {
		if want := float64(i + 3); ev[i].T != want {
			t.Fatalf("event %d at t=%v, want %v", i, ev[i].T, want)
		}
	}
}

// TestTraceRingCopyIsIndependent: a recorder copy (what Snapshot and a
// fork make) shares nothing with its source.
func TestTraceRingCopyIsIndependent(t *testing.T) {
	r := newRecorder()
	r.trace(obs.Event{T: 1, Kind: obs.EventInjectStart, Detail: "gyro"})
	r.trace(obs.Event{T: 2, Kind: obs.EventGateReject, Detail: "gps", Value: 4.2})
	snap := r

	r.trace(obs.Event{T: 3, Kind: obs.EventCrash})

	fork := snap
	if fork.evN != 2 {
		t.Fatalf("fork len = %d, want 2", fork.evN)
	}
	ev := fork.traceEvents()
	if ev[1].Kind != obs.EventGateReject || ev[1].Detail != "gps" || ev[1].Value != 4.2 {
		t.Errorf("fork event 1 = %+v", ev[1])
	}
	fork.trace(obs.Event{T: 9, Kind: obs.EventComplete})
	if r.evN != 3 || r.traceEvents()[2].Kind != obs.EventCrash {
		t.Errorf("fork append changed source: %v", r.traceEvents())
	}
}

func TestTraceRingCopyCarriesDropped(t *testing.T) {
	r := newRecorder()
	for i := 0; i < DefaultTraceCapacity+3; i++ {
		r.trace(obs.Event{T: float64(i), Kind: obs.EventPhase})
	}
	fork := r
	if fork.evDropped != 3 {
		t.Errorf("fork dropped = %d, want 3", fork.evDropped)
	}
	fork.trace(obs.Event{T: 100, Kind: obs.EventComplete})
	if fork.evDropped != 4 || r.evDropped != 3 {
		t.Errorf("dropped fork=%d source=%d, want 4 and 3", fork.evDropped, r.evDropped)
	}
}

func TestTraceSummaryCountsByKind(t *testing.T) {
	r := newRecorder()
	r.trace(obs.Event{Kind: obs.EventPhase})
	r.trace(obs.Event{Kind: obs.EventPhase})
	r.trace(obs.Event{Kind: obs.EventFailsafe})
	got := r.traceSummary()
	if len(got) != 2 || got["phase"] != 2 || got["failsafe"] != 1 {
		t.Errorf("traceSummary = %v", got)
	}
}

// TestRecorderHooksAllocationFree pins the step-loop contract: every
// hook the 500 Hz loop calls, trace appends included, allocates nothing.
func TestRecorderHooksAllocationFree(t *testing.T) {
	r := newRecorder()
	var h ekf.Health
	i := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		r.trace(obs.Event{T: i, Kind: obs.EventPhase, Detail: "2"})
		r.onPhase(i, flightPhase(int(i)%phaseCount+1))
		r.onTilt(i)
		h.GPSGateRejects++
		r.afterGPS(i, h)
		r.onTrack(i, true, int(i)%2 == 0, i)
		r.onTailPoint(TrajPoint{T: i})
	}); n != 0 {
		t.Errorf("recorder hooks allocate %.1f per op, want 0", n)
	}
}

// TestForkAfterTraceOverflow forks a flight whose event ring has already
// wrapped and dropped events when the snapshot is taken; the fork keeps
// evicting, and its trace, drop count and summary must equal the
// straight run's.
func TestForkAfterTraceOverflow(t *testing.T) {
	cfg := DefaultConfig()
	m := mission.Valencia()[0]
	// A long accelerometer-noise window keeps the vehicle flying while the
	// filter's gate-rejection streaks and bubble excursions come and go.
	inj := &faultinject.Injection{
		Primitive: faultinject.Noise, Target: faultinject.TargetAccel,
		Start: 10 * time.Second, Duration: 400 * time.Second, Seed: 5,
	}
	prefix, err := NewVehicle(cfg, m, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix.RunUntil(250)
	cp := prefix.Snapshot()
	if cp.s.rec.evDropped == 0 || cp.s.rec.evStart == 0 {
		t.Fatalf("ring not wrapped at snapshot (start=%d, dropped=%d)", cp.s.rec.evStart, cp.s.rec.evDropped)
	}

	straight, err := Run(cfg, m, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := cp.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := fork.RunToEnd()
	sd, fd := straight.Diagnostics, got.Diagnostics
	if sd.TraceDropped <= cp.s.rec.evDropped {
		t.Fatalf("no events evicted after the snapshot (dropped %d at snapshot, %d at end)",
			cp.s.rec.evDropped, sd.TraceDropped)
	}
	if fd.TraceDropped != sd.TraceDropped {
		t.Errorf("trace dropped fork=%d straight=%d", fd.TraceDropped, sd.TraceDropped)
	}
	if !reflect.DeepEqual(fd.Trace, sd.Trace) {
		t.Errorf("trace differs\nfork:     %v\nstraight: %v", fd.Trace, sd.Trace)
	}
	if !reflect.DeepEqual(fd.TraceSummary, sd.TraceSummary) {
		t.Errorf("trace summary fork=%v straight=%v", fd.TraceSummary, sd.TraceSummary)
	}
	sameResult(t, "overflowed ring", straight, got)
}
