package uavres

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uavres/internal/mathx"
)

// hop is a short mission for fast API-level tests.
func hop() Mission {
	start := ValenciaMissions()[0].Start
	return Mission{
		ID: 1, Name: "api hop", CruiseSpeedMS: 3.3, AltitudeM: 15,
		Drone: DroneSpec{Name: "t", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 5},
		Start: start,
		Waypoints: []mathx.Vec3{
			{X: start.X, Y: start.Y + 90, Z: -15},
		},
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig()
	res, err := RunMission(cfg, hop(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.Completed() {
		t.Fatalf("gold hop outcome = %v", res.Outcome)
	}
}

func TestPublicFaultInjectionFlow(t *testing.T) {
	inj := &Injection{
		Primitive: MinValue, Target: TargetGyro,
		Start: 20 * time.Second, Duration: 2 * time.Second,
	}
	res, err := RunMission(DefaultConfig(), hop(), inj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == OutcomeCompleted {
		t.Error("gyro-min flight completed")
	}
}

func TestPublicObserver(t *testing.T) {
	count := 0
	_, err := RunMission(DefaultConfig(), hop(), nil, func(Telemetry) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("observer never called")
	}
}

func TestScenarioAndFaultModelAccessors(t *testing.T) {
	if got := len(ValenciaMissions()); got != 10 {
		t.Errorf("missions = %d", got)
	}
	// Table I's 14 sensor classes plus the three actuator classes.
	if got := len(FaultModel()); got != 17 {
		t.Errorf("fault classes = %d", got)
	}
	if got := len(Primitives()); got != 7 {
		t.Errorf("primitives = %d", got)
	}
	if got := len(Targets()); got != 3 {
		t.Errorf("targets = %d", got)
	}
	if got := len(ActuatorPrimitives()); got != 3 {
		t.Errorf("actuator primitives = %d", got)
	}
	if frame, err := ParseAirframe("octo-x"); err != nil || frame != OctoX {
		t.Errorf("ParseAirframe(octo-x) = %v, %v", frame, err)
	}
}

func TestInnerBubbleRadius(t *testing.T) {
	spec := DroneSpec{DimensionM: 1, SafetyDistM: 2, MaxSpeedMS: 4}
	if got := InnerBubbleRadius(spec, 1); got != 5 {
		t.Errorf("InnerBubbleRadius = %v, want 1 + max(2, 4) = 5", got)
	}
}

func TestPlanCampaignDefaults(t *testing.T) {
	cases := PlanCampaign(CampaignOptions{})
	if len(cases) != 850 {
		t.Errorf("cases = %d, want 850", len(cases))
	}
}

func TestRunCampaignSubsetAndPersistence(t *testing.T) {
	ms := []Mission{hop()}
	var progressed int
	results := RunCampaign(context.Background(), CampaignOptions{
		Missions: ms,
		Workers:  2,
		Progress: func(done, total int) { progressed = done },
		Config: func() Config {
			c := DefaultConfig()
			c.MaxSimTime = 120 // the hop finishes in ~55 s; faults hit at 90 s
			return c
		}(),
	})
	if len(results) != 85 {
		t.Fatalf("results = %d, want 85 (one mission)", len(results))
	}
	if progressed != 85 {
		t.Errorf("progress reached %d", progressed)
	}

	path := filepath.Join(t.TempDir(), "results.json")
	if err := SaveResults(path, results); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(results) {
		t.Errorf("loaded %d results", len(loaded))
	}

	// The report renders from either live or loaded results.
	report := Report(loaded)
	for _, want := range []string{"Acoustic attack", "TABLE II:", "Gold Run", "TABLE III:", "Gyro", "TABLE IV:", "Failsafe"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	gold := GoldStats(loaded)
	if gold.N != 1 || gold.CompletedPct != 100 {
		t.Errorf("gold stats = %+v", gold)
	}
	if got := len(StatsByDuration(loaded)); got != 4 {
		t.Errorf("duration groups = %d", got)
	}
	if got := len(StatsByFault(loaded)); got != 21 {
		t.Errorf("fault groups = %d", got)
	}
	if got := len(StatsByComponent(loaded)); got != 3 {
		t.Errorf("component groups = %d", got)
	}
}
