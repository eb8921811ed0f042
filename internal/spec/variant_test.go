package spec

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"uavres/internal/core"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/sim"
)

// hop is a 120 m one-leg mission that keeps flown spec tests fast.
func hop() []mission.Mission {
	return []mission.Mission{{
		ID: 1, Name: "hop", CruiseSpeedMS: 3.3, AltitudeM: 15,
		Drone:     mission.DroneSpec{Name: "t", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 5},
		Start:     mathx.V3(0, 0, 0),
		Waypoints: []mathx.Vec3{{X: 0, Y: 120, Z: -15}},
	}}
}

// hopSpec is one fault on hop at T+20 s for 5 s, no gold run.
func hopSpec(target, prim string) CampaignSpec {
	return CampaignSpec{
		Version: Version,
		Seed:    3,
		Gold:    boolp(false),
		Matrix: Matrix{
			Targets:      []string{target},
			Primitives:   []string{prim},
			DurationsSec: []float64{5},
			StartsSec:    []float64{20},
		},
	}
}

// flyHop compiles s on hop and runs it batched and straight through,
// requiring the two to agree bit for bit; it returns the results by ID.
func flyHop(t *testing.T, s CampaignSpec) map[string]sim.Result {
	t.Helper()
	cases, err := s.Compile(hop())
	if err != nil {
		t.Fatal(err)
	}
	run := func(checkpoint bool) []core.CaseResult {
		r := core.NewRunner()
		r.Missions = hop()
		r.Workers = 1
		r.Checkpoint = checkpoint
		s.Overrides.Apply(&r.Config)
		return r.RunAll(context.Background(), cases)
	}
	batched, straight := run(true), run(false)
	out := map[string]sim.Result{}
	for i, res := range batched {
		if res.Err != "" {
			t.Fatalf("%s: %s", res.Case.ID, res.Err)
		}
		if !reflect.DeepEqual(res.Result, straight[i].Result) {
			t.Errorf("%s: batched result differs from the straight run", res.Case.ID)
		}
		out[res.Case.ID] = res.Result
	}
	return out
}

// TestStartsAxisOnHop: a gyro fault while airborne ends the hop, and one
// whose window opens after the flight's end never fires, so that case
// completes.
func TestStartsAxisOnHop(t *testing.T) {
	s := hopSpec("gyro", "min")
	s.Matrix.StartsSec = []float64{20, 500}
	got := flyHop(t, s)
	if len(got) != 2 {
		t.Fatalf("flew %d cases, want 2", len(got))
	}
	if r := got["m01-gyro-min-5s-t20s"]; r.Outcome == sim.OutcomeCompleted {
		t.Errorf("in-flight gyro min completed: %+v", r)
	}
	if r := got["m01-gyro-min-5s-t500s"]; r.Outcome != sim.OutcomeCompleted {
		t.Errorf("never-activated fault ended %v", r.Outcome)
	}
}

// TestCancelledSpecRunFliesNothing: a start sweep compiled from a spec
// and run under an already-cancelled context flies no case, batched or
// straight: every case comes back cancelled and none reaches OnResult.
func TestCancelledSpecRunFliesNothing(t *testing.T) {
	s := hopSpec("gyro", "min")
	s.Matrix.StartsSec = []float64{20, 40}
	cases, err := s.Compile(hop())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, checkpoint := range []bool{true, false} {
		r := core.NewRunner()
		r.Missions = hop()
		r.Workers = 1
		r.Checkpoint = checkpoint
		flown := 0
		r.OnResult = func(core.CaseResult) { flown++ }
		results := r.RunAll(ctx, cases)
		if len(results) != len(cases) {
			t.Fatalf("checkpoint=%v: %d results for %d cases", checkpoint, len(results), len(cases))
		}
		for _, res := range results {
			if res.Err != "cancelled" {
				t.Errorf("checkpoint=%v: %s: err %q, want cancelled", checkpoint, res.Case.ID, res.Err)
			}
		}
		if flown != 0 {
			t.Errorf("checkpoint=%v: cancelled run flew %d cases", checkpoint, flown)
		}
	}
}

// TestDurationsAxisMonotoneHarm: a longer accelerometer-zeros window does
// no less harm than a shorter one on the same flight (on hop both
// complete, with 40 and 99 inner violations at seed 3).
func TestDurationsAxisMonotoneHarm(t *testing.T) {
	s := hopSpec("acc", "zeros")
	s.Matrix.DurationsSec = []float64{0.5, 5}
	got := flyHop(t, s)
	short, long := got["m01-acc-zeros-0.5s-t20s"], got["m01-acc-zeros-5s-t20s"]
	if short.Outcome != sim.OutcomeCompleted && long.Outcome == sim.OutcomeCompleted {
		t.Errorf("the 5 s window completed where the 0.5 s one ended %v", short.Outcome)
	}
	if long.InnerViolations < short.InnerViolations {
		t.Errorf("inner violations fell with duration: %d at 0.5 s, %d at 5 s",
			short.InnerViolations, long.InnerViolations)
	}
}

// TestGyroThresholdVariants: variants suffix the case IDs and carry
// their overrides on the case, which the fingerprint hashes apart; a
// 30 deg/s failsafe threshold trips on gyro noise, and an unreachable
// one changes the outcome.
func TestGyroThresholdVariants(t *testing.T) {
	s := hopSpec("gyro", "noise")
	s.Variants = []core.Variant{
		{Name: "thr30", Overrides: core.Overrides{GyroThresholdDegS: f64p(30)}},
		{Name: "thr1e5", Overrides: core.Overrides{GyroThresholdDegS: f64p(1e5)}},
	}
	cases, err := s.Compile(hop())
	if err != nil {
		t.Fatal(err)
	}
	AttachFingerprints(cases, sim.DefaultConfig())
	if len(cases) != 2 || cases[0].Hash == cases[1].Hash {
		t.Fatalf("compiled %+v, want two cases with distinct fingerprints", cases)
	}
	for i, c := range cases {
		if v := s.Variants[i]; c.Variant == nil || !reflect.DeepEqual(*c.Variant, v) ||
			!strings.HasSuffix(c.ID, "-"+v.Name) {
			t.Errorf("case %s carries variant %+v, want %+v", c.ID, c.Variant, v)
		}
	}
	got := flyHop(t, s)
	tight, loose := got["m01-gyro-noise-5s-t20s-thr30"], got["m01-gyro-noise-5s-t20s-thr1e5"]
	if tight.Outcome != sim.OutcomeFailsafe {
		t.Errorf("30 deg/s threshold ended %v (%s), want a failsafe", tight.Outcome, tight.FailsafeCause)
	}
	if loose.Outcome == tight.Outcome && loose.FailsafeCause == tight.FailsafeCause {
		t.Errorf("threshold had no effect: %v (%s) at both", tight.Outcome, tight.FailsafeCause)
	}
}

// TestRiskFactorVariants: a larger outer bubble (R = 4) counts no more
// outer violations than the paper's R = 1 on the same flight.
func TestRiskFactorVariants(t *testing.T) {
	s := hopSpec("acc", "zeros")
	s.Variants = []core.Variant{
		{Name: "r1", Overrides: core.Overrides{RiskR: f64p(1)}},
		{Name: "r4", Overrides: core.Overrides{RiskR: f64p(4)}},
	}
	got := flyHop(t, s)
	r1, r4 := got["m01-acc-zeros-5s-t20s-r1"], got["m01-acc-zeros-5s-t20s-r4"]
	if len(got) != 2 {
		t.Fatalf("flew %d cases, want 2", len(got))
	}
	if r4.OuterViolations > r1.OuterViolations {
		t.Errorf("outer violations grew with the bubble: %d at R=1, %d at R=4", r1.OuterViolations, r4.OuterViolations)
	}
}
