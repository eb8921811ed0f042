package uspace

import (
	"math"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/sim"
	"uavres/internal/telemetry"
)

// TestFig2ViolationsThroughCodecToTracker is the oracle for the Fig. 1
// tracking path. It flies the Fig. 2 case exactly as cmd/figures does
// (acc Zeros on mission 5 at 90 s for 30 s), a flight that crosses both
// bubble layers, and sends every 1 Hz observation through the wire:
// EncodeTelemetry, Frame.Encode, ReadFrameBytes, Tracker.Ingest. The
// tracker must count the recorder's inner and outer violations (19/8,
// pinned in cmd/figures/testdata/figures.txt) and hold the last
// observation's position and bubble radii bit for bit.
func TestFig2ViolationsThroughCodecToTracker(t *testing.T) {
	m := mission.Valencia()[4]
	inj := faultinject.Injection{
		Primitive: faultinject.Zeros, Target: faultinject.TargetAccel,
		Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 6,
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = 42
	cfg.RecordTrajectory = true

	sysID := uint8(m.ID)
	tr := NewTracker()
	var last sim.Telemetry
	var n int
	res, err := sim.Run(cfg, m, &inj, func(tel sim.Telemetry) {
		pf, bf := telemetry.EncodeTelemetry(uint8(n), sysID, tel)
		for _, f := range []telemetry.Frame{pf, bf} {
			raw, err := f.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := telemetry.ReadFrameBytes(raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Ingest(got); err != nil {
				t.Fatal(err)
			}
		}
		last = tel
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InnerViolations == 0 || res.OuterViolations == 0 {
		t.Fatalf("Fig. 2 flight violated %d/%d; the oracle needs both layers crossed",
			res.InnerViolations, res.OuterViolations)
	}

	d, tracked := tr.Drone(sysID)
	if !tracked {
		t.Fatalf("tracker never saw drone %d over %d observations", sysID, n)
	}
	if d.InnerViolations != res.InnerViolations || d.OuterViolations != res.OuterViolations {
		t.Errorf("tracker counted %d/%d violations, recorder %d/%d",
			d.InnerViolations, d.OuterViolations, res.InnerViolations, res.OuterViolations)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(d.Pos.X, last.EstPos.X) || !same(d.Pos.Y, last.EstPos.Y) || !same(d.Pos.Z, last.EstPos.Z) {
		t.Errorf("last tracked position %v, last observation %v", d.Pos, last.EstPos)
	}
	if !same(d.InnerRadius, last.Bubble.InnerRadius) || !same(d.OuterRadius, last.Bubble.OuterRadius) {
		t.Errorf("last tracked radii %v/%v, last observation %v/%v",
			d.InnerRadius, d.OuterRadius, last.Bubble.InnerRadius, last.Bubble.OuterRadius)
	}
	if !same(d.TimeSec, last.T) {
		t.Errorf("last tracked time %v, last observation %v", d.TimeSec, last.T)
	}
}
