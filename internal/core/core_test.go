package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/sim"
)

func TestPlanMatchesPaperCount(t *testing.T) {
	cases := Plan(mission.Valencia(), 1)
	// 10 missions x (21 injection types x 4 durations) + 10 gold = 850.
	if len(cases) != 850 {
		t.Fatalf("plan has %d cases, paper runs 850", len(cases))
	}
	var gold, faulty int
	ids := map[string]bool{}
	missionSeed := map[int]int64{}
	injSeeds := map[int64]int{}
	for _, c := range cases {
		if ids[c.ID] {
			t.Errorf("duplicate case ID %q", c.ID)
		}
		ids[c.ID] = true
		// Environment seeds are shared across one mission's cases (that is
		// what makes prefixes forkable) and distinct between missions.
		if s, ok := missionSeed[c.MissionID]; ok {
			if c.Seed != s {
				t.Errorf("case %s: env seed %d, mission %d uses %d", c.ID, c.Seed, c.MissionID, s)
			}
		} else {
			missionSeed[c.MissionID] = c.Seed
		}
		if c.Injection == nil {
			gold++
			continue
		}
		faulty++
		injSeeds[c.Injection.Seed]++
		if err := c.Injection.Validate(); err != nil {
			t.Errorf("case %s: invalid injection: %v", c.ID, err)
		}
		if c.Injection.Start != InjectionStartSec*time.Second {
			t.Errorf("case %s: start %v, want 90 s", c.ID, c.Injection.Start)
		}
	}
	if gold != 10 || faulty != 840 {
		t.Errorf("gold=%d faulty=%d, want 10/840", gold, faulty)
	}
	envSeeds := map[int64]bool{}
	for _, s := range missionSeed {
		if envSeeds[s] {
			t.Errorf("env seed %d shared between missions", s)
		}
		envSeeds[s] = true
	}
	// Injection randomness stays unique per case.
	for s, n := range injSeeds {
		if n > 1 {
			t.Errorf("injection seed %d reused %d times", s, n)
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	a := Plan(mission.Valencia(), 42)
	b := Plan(mission.Valencia(), 42)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Seed != b[i].Seed {
			t.Fatalf("plan not deterministic at %d", i)
		}
	}
	c := Plan(mission.Valencia(), 43)
	if a[0].Seed == c[0].Seed {
		t.Error("different base seeds produced identical case seeds")
	}
}

func TestPlanCaseIDFormat(t *testing.T) {
	cases := Plan(mission.Valencia(), 1)
	want := map[string]bool{
		"m01-gold":               false,
		"m04-gyro-freeze-10s":    false,
		"m10-imu-fixedvalue-30s": false,
		"m07-acc-random-2s":      false,
		"m03-gyro-min-5s":        false,
	}
	for _, c := range cases {
		if _, ok := want[c.ID]; ok {
			want[c.ID] = true
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("expected case ID %q not generated", id)
		}
	}
}

// mkResult builds a synthetic CaseResult for aggregation tests.
func mkResult(missionID int, inj *faultinject.Injection, outcome sim.Outcome, inner, outer int, dur, dist float64) CaseResult {
	id := "synthetic"
	return CaseResult{
		Case: Case{ID: id, MissionID: missionID, Injection: inj},
		Result: sim.Result{
			MissionID: missionID, Injection: inj, Outcome: outcome,
			InnerViolations: inner, OuterViolations: outer,
			FlightDurationSec: dur, DistanceKm: dist,
		},
	}
}

func inj(p faultinject.Primitive, tg faultinject.Target, d time.Duration) *faultinject.Injection {
	return &faultinject.Injection{Primitive: p, Target: tg, Start: 90 * time.Second, Duration: d}
}

func TestAggregateMath(t *testing.T) {
	results := []CaseResult{
		mkResult(1, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6),
		mkResult(2, nil, sim.OutcomeCompleted, 0, 0, 492, 3.7),
		mkResult(1, inj(faultinject.Zeros, faultinject.TargetAccel, 2*time.Second), sim.OutcomeCompleted, 10, 5, 480, 3.0),
		mkResult(2, inj(faultinject.Zeros, faultinject.TargetAccel, 2*time.Second), sim.OutcomeCrash, 20, 15, 100, 0.5),
		mkResult(3, inj(faultinject.Zeros, faultinject.TargetAccel, 2*time.Second), sim.OutcomeFailsafe, 30, 25, 120, 0.6),
		mkResult(4, inj(faultinject.Zeros, faultinject.TargetAccel, 2*time.Second), sim.OutcomeTimeout, 0, 0, 900, 2.0),
	}
	gold := GoldStats(results)
	if gold.N != 2 || gold.CompletedPct != 100 || gold.DurationSec != 491 {
		t.Errorf("gold stats = %+v", gold)
	}

	rows := ByDuration(results)
	if len(rows) != 1 {
		t.Fatalf("duration groups = %d", len(rows))
	}
	g := rows[0]
	if g.Label != "2 seconds" || g.N != 4 {
		t.Fatalf("row = %+v", g)
	}
	if g.CompletedPct != 25 || g.FailedPct != 75 {
		t.Errorf("completion = %v/%v", g.CompletedPct, g.FailedPct)
	}
	if g.InnerViolations != 15 { // (10+20+30+0)/4
		t.Errorf("inner mean = %v, want 15", g.InnerViolations)
	}
	// Of 3 failures: 1 crash, 2 failsafe-group (failsafe + timeout).
	if g.CrashPct < 33.3 || g.CrashPct > 33.4 {
		t.Errorf("crash pct = %v, want 33.3", g.CrashPct)
	}
	if g.FailsafePct < 66.6 || g.FailsafePct > 66.7 {
		t.Errorf("failsafe pct = %v, want 66.7", g.FailsafePct)
	}
}

func TestByFaultGroupingAndOrder(t *testing.T) {
	results := []CaseResult{
		mkResult(1, inj(faultinject.Zeros, faultinject.TargetAccel, 2*time.Second), sim.OutcomeCompleted, 0, 0, 480, 3),
		mkResult(1, inj(faultinject.Noise, faultinject.TargetAccel, 2*time.Second), sim.OutcomeCrash, 0, 0, 100, 1),
		mkResult(1, inj(faultinject.Zeros, faultinject.TargetGyro, 2*time.Second), sim.OutcomeCrash, 0, 0, 100, 1),
		mkResult(1, inj(faultinject.Zeros, faultinject.TargetIMU, 2*time.Second), sim.OutcomeCrash, 0, 0, 100, 1),
	}
	rows := ByFault(results)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Acc rows first (sorted by completion desc), then Gyro, then IMU.
	wantOrder := []string{"Acc Zeros", "Acc Noise", "Gyro Zeros", "IMU Zeros"}
	for i, w := range wantOrder {
		if rows[i].Label != w {
			t.Errorf("row %d = %q, want %q", i, rows[i].Label, w)
		}
	}
}

func TestByComponent(t *testing.T) {
	results := []CaseResult{
		mkResult(1, inj(faultinject.Zeros, faultinject.TargetAccel, 2*time.Second), sim.OutcomeCompleted, 0, 0, 480, 3),
		mkResult(1, inj(faultinject.Zeros, faultinject.TargetGyro, 2*time.Second), sim.OutcomeCrash, 0, 0, 100, 1),
	}
	rows := ByComponent(results)
	if len(rows) != 2 {
		t.Fatalf("component rows = %d", len(rows))
	}
	if rows[0].Label != "Acc" || rows[1].Label != "Gyro" {
		t.Errorf("order = %q, %q", rows[0].Label, rows[1].Label)
	}
	if rows[0].FailedPct != 0 || rows[1].FailedPct != 100 {
		t.Errorf("failure split wrong: %+v", rows)
	}
}

func TestInfrastructureErrorsExcluded(t *testing.T) {
	results := []CaseResult{
		mkResult(1, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6),
		{Case: Case{ID: "broken", MissionID: 7}, Err: "boom"},
	}
	if got := GoldStats(results); got.N != 1 {
		t.Errorf("gold N = %d, errored case not excluded", got.N)
	}
}

func TestFindRow(t *testing.T) {
	rows := []GroupStats{{Label: "a"}, {Label: "b", N: 3}}
	if got, exists := Find(rows, "b"); !exists || got.N != 3 {
		t.Errorf("Find = %+v, %v", got, exists)
	}
	if _, exists := Find(rows, "zzz"); exists {
		t.Error("Find located a missing label")
	}
}

// TestSaveLoadRoundTrip: a results file written by ResultsFileWriter
// loads back through LoadResultsFile unchanged.
func TestSaveLoadRoundTrip(t *testing.T) {
	in := []CaseResult{
		mkResult(1, inj(faultinject.Freeze, faultinject.TargetIMU, 5*time.Second), sim.OutcomeFailsafe, 3, 2, 99.5, 0.4),
		mkResult(2, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6),
	}
	path := filepath.Join(t.TempDir(), "results.json")
	w, err := NewResultsFileWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range in {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := LoadResultsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("loaded %d results", len(out))
	}
	if out[0].Result.Outcome != sim.OutcomeFailsafe || out[0].Result.InnerViolations != 3 {
		t.Errorf("round trip lost data: %+v", out[0].Result)
	}
	if out[0].Case.Injection == nil || out[0].Case.Injection.Primitive != faultinject.Freeze {
		t.Errorf("round trip lost injection: %+v", out[0].Case)
	}
	if out[1].Case.Injection != nil {
		t.Error("gold case grew an injection")
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip changed the results:\nwrote  %+v\nloaded %+v", in, out)
	}
}

// TestLoadRejectsGarbage: a results file that is not JSON is an error
// that names the file.
func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadResultsFile(path)
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not name the file: %v", err)
	}
}

func TestRenderTables(t *testing.T) {
	results := []CaseResult{
		mkResult(1, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6),
		mkResult(1, inj(faultinject.Zeros, faultinject.TargetAccel, 2*time.Second), sim.OutcomeCompleted, 10, 5, 480, 3.0),
		mkResult(1, inj(faultinject.MinValue, faultinject.TargetGyro, 30*time.Second), sim.OutcomeCrash, 20, 15, 100, 0.5),
	}
	t2 := RenderTableII(results)
	for _, want := range []string{"Gold Run", "2 seconds", "30 seconds", "Completed"} {
		if !strings.Contains(t2, want) {
			t.Errorf("table II missing %q:\n%s", want, t2)
		}
	}
	t3 := RenderTableIII(results)
	for _, want := range []string{"Acc Zeros", "Gyro Min"} {
		if !strings.Contains(t3, want) {
			t.Errorf("table III missing %q", want)
		}
	}
	t4 := RenderTableIV(results)
	for _, want := range []string{"Acc", "Gyro", "Crash (%)", "Failsafe (%)"} {
		if !strings.Contains(t4, want) {
			t.Errorf("table IV missing %q", want)
		}
	}
	t1 := RenderFaultModel()
	for _, want := range []string{"Acoustic attack", "Hardware trojan", "Freeze"} {
		if !strings.Contains(t1, want) {
			t.Errorf("table I missing %q", want)
		}
	}
}

// shortScenario is a miniature mission set for runner tests.
func shortScenario() []mission.Mission {
	return []mission.Mission{
		{
			ID: 1, Name: "hop", CruiseSpeedMS: 3.33, AltitudeM: 15,
			Drone:     mission.DroneSpec{Name: "t", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 5},
			Start:     mathx.V3(0, 0, 0),
			Waypoints: []mathx.Vec3{{X: 0, Y: 80, Z: -15}},
		},
	}
}

func TestRunnerExecutesCases(t *testing.T) {
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = 2
	var progressCalls int
	r.Progress = func(done, total int) { progressCalls++ }
	cases := []Case{
		{ID: "gold", MissionID: 1, Seed: 5},
		{ID: "fault", MissionID: 1, Seed: 6, Injection: inj(faultinject.MinValue, faultinject.TargetGyro, 2*time.Second)},
		{ID: "missing-mission", MissionID: 77, Seed: 7},
	}
	// The fault at t=90 lands after this short mission finishes; shift it.
	cases[1].Injection.Start = 20 * time.Second

	results := r.RunAll(context.Background(), cases)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != "" || results[0].Result.Outcome != sim.OutcomeCompleted {
		t.Errorf("gold case: %+v", results[0])
	}
	if results[1].Err != "" || results[1].Result.Outcome == sim.OutcomeCompleted {
		t.Errorf("gyro-min case completed: %+v", results[1])
	}
	if results[2].Err == "" {
		t.Error("unknown mission did not error")
	}
	if progressCalls != 3 {
		t.Errorf("progress calls = %d", progressCalls)
	}
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func(workers int) []CaseResult {
		r := NewRunner()
		r.Missions = shortScenario()
		r.Workers = workers
		cases := []Case{
			{ID: "a", MissionID: 1, Seed: 11},
			{ID: "b", MissionID: 1, Seed: 12, Injection: &faultinject.Injection{
				Primitive: faultinject.Noise, Target: faultinject.TargetAccel,
				Start: 20 * time.Second, Duration: 5 * time.Second, Seed: 3,
			}},
			{ID: "c", MissionID: 1, Seed: 13, Injection: &faultinject.Injection{
				Primitive: faultinject.Zeros, Target: faultinject.TargetGyro,
				Start: 20 * time.Second, Duration: 2 * time.Second, Seed: 4,
			}},
		}
		return r.RunAll(context.Background(), cases)
	}
	one := mk(1)
	three := mk(3)
	for i := range one {
		if one[i].Result.Outcome != three[i].Result.Outcome ||
			one[i].Result.FlightDurationSec != three[i].Result.FlightDurationSec {
			t.Errorf("case %d differs across worker counts: %+v vs %+v", i, one[i].Result, three[i].Result)
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before scheduling
	r := NewRunner()
	r.Missions = shortScenario()
	cases := []Case{{ID: "x", MissionID: 1, Seed: 1}, {ID: "y", MissionID: 1, Seed: 2}}
	results := r.RunAll(ctx, cases)
	cancelled := 0
	for _, cr := range results {
		if cr.Err == "cancelled" {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no case marked cancelled after pre-cancelled context")
	}
}

// TestRunnerCancelFromOnResult: a cancel mid-run stops the rest. The
// consumer cancels after the first finished case; the one worker may
// still take the unit the feed loop was offering, and every other case
// comes back cancelled without reaching the consumer.
func TestRunnerCancelFromOnResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = 1
	r.Checkpoint = false // one case per unit
	streamed := map[string]bool{}
	r.OnResult = func(res CaseResult) {
		streamed[res.Case.ID] = true
		cancel()
	}
	var cases []Case
	for i := 0; i < 5; i++ {
		cases = append(cases, Case{ID: fmt.Sprintf("gold-%d", i), MissionID: 1, Seed: int64(i + 1)})
	}
	results := r.RunAll(ctx, cases)
	if results[0].Err != "" {
		t.Fatalf("first case: %s", results[0].Err)
	}
	cancelled := 0
	for _, res := range results {
		switch {
		case res.Err == "cancelled":
			cancelled++
			if streamed[res.Case.ID] {
				t.Errorf("%s streamed and then marked cancelled", res.Case.ID)
			}
		case res.Err != "" || !streamed[res.Case.ID]:
			t.Errorf("%s: err %q, streamed %v", res.Case.ID, res.Err, streamed[res.Case.ID])
		}
	}
	if cancelled < len(cases)-2 {
		t.Errorf("%d of %d cases cancelled, want at least %d", cancelled, len(cases), len(cases)-2)
	}
}

// TestRunnerStreamsWaitingResultsOnCancel: results stream in input
// order, so a case that finishes ahead of an earlier one waits; when the
// run is cancelled, the waiting results are still streamed, in order,
// and the cases that never ran are skipped. Here the gold runs, listed
// after the chain's cases, fly first, and the run is cancelled as the
// first of them completes.
func TestRunnerStreamsWaitingResultsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = 1
	r.Batch = false // one case per unit: gold runs first, then the chain
	var streamed []string
	r.OnResult = func(res CaseResult) { streamed = append(streamed, res.Case.ID) }
	var progress []int
	r.Progress = func(done, _ int) {
		progress = append(progress, done)
		cancel()
	}
	mk := func(p faultinject.Primitive) *faultinject.Injection {
		return &faultinject.Injection{Primitive: p, Target: faultinject.TargetGyro,
			Start: 20 * time.Second, Duration: 2 * time.Second, Seed: int64(p)}
	}
	cases := []Case{
		{ID: "freeze", MissionID: 1, Seed: 3, Injection: mk(faultinject.Freeze)},
		{ID: "zeros", MissionID: 1, Seed: 3, Injection: mk(faultinject.Zeros)},
		{ID: "gold-a", MissionID: 1, Seed: 3},
		{ID: "gold-b", MissionID: 1, Seed: 4},
	}
	results := r.RunAll(ctx, cases)
	var ran []string
	for _, res := range results {
		switch res.Err {
		case "":
			ran = append(ran, res.Case.ID)
		case "cancelled":
		default:
			t.Errorf("%s: %s", res.Case.ID, res.Err)
		}
	}
	if len(ran) == 0 || ran[0] != "gold-a" || results[0].Err != "cancelled" || results[1].Err != "cancelled" {
		t.Fatalf("ran %v; want gold-a first and the chain's cases cancelled", ran)
	}
	if !reflect.DeepEqual(streamed, ran) {
		t.Errorf("streamed %v, want the finished cases in input order %v", streamed, ran)
	}
	if len(progress) != len(ran) || progress[0] != 1 {
		t.Errorf("progress %v, want one call per finished case", progress)
	}
}

func TestSortByID(t *testing.T) {
	rs := []CaseResult{{Case: Case{ID: "b"}}, {Case: Case{ID: "a"}}}
	SortByID(rs)
	if rs[0].Case.ID != "a" {
		t.Error("not sorted")
	}
}

// chainCases builds one mission-1 campaign whose faulted cases form
// three chains — sensor faults under each scope, and rotor faults — each
// spread over several injection starts with mixed durations, so most
// cases fork from a snapshot taken before the chain's last start.
func chainCases() []Case {
	starts := []time.Duration{10 * time.Second, 15 * time.Second, 20 * time.Second}
	durs := []time.Duration{2 * time.Second, 5 * time.Second}
	cases := []Case{{ID: "gold", MissionID: 1, Seed: 21}}
	add := func(id string, in faultinject.Injection) {
		n := len(cases)
		in.Start, in.Duration = starts[n%len(starts)], durs[n%len(durs)]
		cases = append(cases, Case{ID: id, MissionID: 1, Seed: 21, Injection: &in})
	}
	for _, p := range faultinject.Primitives() {
		for _, target := range faultinject.Targets() {
			add("f-"+p.String()+"-"+target.String(), faultinject.Injection{
				Primitive: p, Target: target, Seed: int64(100*int(p) + int(target)),
			})
		}
	}
	for _, p := range []faultinject.Primitive{faultinject.Freeze, faultinject.Zeros, faultinject.Noise, faultinject.MaxValue} {
		add("p-"+p.String(), faultinject.Injection{
			Primitive: p, Target: faultinject.TargetGyro, Scope: faultinject.ScopePrimaryUnit, Seed: 7,
		})
	}
	for i, p := range faultinject.ActuatorPrimitives() {
		add("r-"+p.String(), faultinject.Injection{
			Primitive: p, Target: faultinject.TargetRotor, Rotor: i % 4, Seed: 9,
		})
	}
	return cases
}

// TestRunnerCheckpointMatchesStraight: the chained checkpoint-and-fork
// execution path must produce byte-for-byte the results of
// straight-through execution, with every faulted case forked and one
// prefix built per chain.
func TestRunnerCheckpointMatchesStraight(t *testing.T) {
	const chains = 3
	reg := obs.NewRegistry()
	run := func(checkpoint bool) []CaseResult {
		r := NewRunner()
		r.Missions = shortScenario()
		r.Workers = 4
		r.Checkpoint = checkpoint
		if checkpoint {
			r.Obs = reg
		}
		return r.RunAll(context.Background(), chainCases())
	}

	straight := run(false)
	forked := run(true)
	if got := reg.Counter("campaign_cases_straight_total").Value(); got != 1 {
		t.Errorf("straight = %d, want 1 (the gold case): every faulted case must fork", got)
	}
	if got := reg.Counter("campaign_prefixes_built_total").Value(); got != chains {
		t.Errorf("prefixes built = %d, want %d (one per chain)", got, chains)
	}
	if len(straight) != len(forked) {
		t.Fatalf("result counts differ: %d vs %d", len(straight), len(forked))
	}
	for i := range straight {
		s, f := straight[i], forked[i]
		if s.Err != f.Err {
			t.Errorf("%s: err %q vs %q", s.Case.ID, s.Err, f.Err)
		}
		if s.Result.Outcome != f.Result.Outcome ||
			s.Result.FlightDurationSec != f.Result.FlightDurationSec ||
			s.Result.DistanceKm != f.Result.DistanceKm ||
			s.Result.InnerViolations != f.Result.InnerViolations ||
			s.Result.OuterViolations != f.Result.OuterViolations ||
			s.Result.WaypointsReached != f.Result.WaypointsReached ||
			s.Result.FailsafeCause != f.Result.FailsafeCause ||
			s.Result.CrashReason != f.Result.CrashReason {
			t.Errorf("%s: checkpointed result differs:\n straight %+v\n forked   %+v",
				s.Case.ID, s.Result, f.Result)
		}
		if !reflect.DeepEqual(s.Result.Diagnostics, f.Result.Diagnostics) {
			t.Errorf("%s: diagnostics differ between straight and forked:\n straight %+v\n forked   %+v",
				s.Case.ID, s.Result.Diagnostics, f.Result.Diagnostics)
		}
	}
}

// progressRecord captures one Progress callback.
type progressRecord struct{ done, total int }

// checkProgress asserts the satellite-task contract: Progress is invoked
// exactly once per case with monotonically increasing done and a constant
// total, ending at done == total.
func checkProgress(t *testing.T, label string, calls []progressRecord, total int) {
	t.Helper()
	if len(calls) != total {
		t.Fatalf("%s: progress called %d times for %d cases", label, len(calls), total)
	}
	for i, c := range calls {
		if c.done != i+1 {
			t.Errorf("%s: call %d reported done=%d, want %d", label, i, c.done, i+1)
		}
		if c.total != total {
			t.Errorf("%s: call %d reported total=%d, want %d", label, i, c.total, total)
		}
	}
}

// progressCases builds a case mix with a forkable group (two faulty cases
// sharing mission, seed, scope, and start), a gold run, and an erroring
// case — every path Progress must still fire on.
func progressCases() []Case {
	mk := func(p faultinject.Primitive, seed int64) *faultinject.Injection {
		return &faultinject.Injection{
			Primitive: p, Target: faultinject.TargetGyro,
			Start: 20 * time.Second, Duration: 2 * time.Second, Seed: seed,
		}
	}
	return []Case{
		{ID: "gold", MissionID: 1, Seed: 31},
		{ID: "f1", MissionID: 1, Seed: 31, Injection: mk(faultinject.Zeros, 1)},
		{ID: "f2", MissionID: 1, Seed: 31, Injection: mk(faultinject.Noise, 2)},
		{ID: "broken", MissionID: 99, Seed: 31},
	}
}

func TestRunnerProgressContract(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		label := "straight"
		if checkpoint {
			label = "checkpoint"
		}
		r := NewRunner()
		r.Missions = shortScenario()
		r.Workers = 3
		r.Checkpoint = checkpoint
		var calls []progressRecord
		r.Progress = func(done, total int) { calls = append(calls, progressRecord{done, total}) }
		cases := progressCases()
		r.RunAll(context.Background(), cases)
		checkProgress(t, label, calls, len(cases))
	}
}

// TestRunnerMetrics: with an Obs registry and an injected clock, RunAll
// accounts for every case exactly once, splits forked vs straight
// execution, tallies outcomes and errors, and records stage timing from
// the injected clock only.
func TestRunnerMetrics(t *testing.T) {
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = 2
	r.Checkpoint = true
	r.Obs = obs.NewRegistry()
	var fake struct {
		mu sync.Mutex
		t  float64
	}
	r.Clock = func() float64 {
		fake.mu.Lock()
		defer fake.mu.Unlock()
		fake.t += 0.125
		return fake.t
	}
	cases := progressCases()
	r.RunAll(context.Background(), cases)

	val := func(name string) int64 { return r.Obs.Counter(name).Value() }
	if got := val("campaign_cases_total"); got != int64(len(cases)) {
		t.Errorf("cases_total = %d, want %d", got, len(cases))
	}
	if val("campaign_case_errors_total") != 1 {
		t.Errorf("errors = %d, want 1 (the unknown-mission case)", val("campaign_case_errors_total"))
	}
	// The f1/f2 pair shares a prefix: one checkpoint built, two forks.
	if val("campaign_prefixes_built_total") != 1 {
		t.Errorf("prefixes = %d, want 1", val("campaign_prefixes_built_total"))
	}
	if val("campaign_cases_forked_total") != 2 {
		t.Errorf("forked = %d, want 2", val("campaign_cases_forked_total"))
	}
	if got := val("campaign_cases_forked_total") + val("campaign_cases_straight_total"); got != int64(len(cases)) {
		t.Errorf("forked+straight = %d, want %d", got, len(cases))
	}
	outcomes := val("campaign_outcome_completed_total") + val("campaign_outcome_crash_total") +
		val("campaign_outcome_failsafe_total") + val("campaign_outcome_timeout_total")
	if outcomes != int64(len(cases))-1 {
		t.Errorf("outcome counters sum to %d, want %d", outcomes, len(cases)-1)
	}
	h := r.Obs.Histogram("campaign_case_seconds", caseSecondsBounds)
	if h.Count() != int64(len(cases)) {
		t.Errorf("case_seconds count = %d, want %d", h.Count(), len(cases))
	}
	if h.Sum() <= 0 {
		t.Error("case_seconds sum is zero with a ticking clock")
	}
	if r.Obs.Gauge("campaign_checkpoint_stage_seconds").Value() <= 0 {
		t.Error("checkpoint stage seconds not recorded")
	}
	if r.Obs.Gauge("campaign_run_stage_seconds").Value() <= 0 {
		t.Error("run stage seconds not recorded")
	}
}

// TestRunnerNoClockStaysZero: without an injected clock the runner never
// invents wall time (the timing metrics read zero but counting still works).
func TestRunnerNoClockStaysZero(t *testing.T) {
	r := NewRunner()
	r.Missions = shortScenario()
	r.Obs = obs.NewRegistry()
	cases := []Case{{ID: "gold", MissionID: 1, Seed: 31}}
	r.RunAll(context.Background(), cases)
	if got := r.Obs.Counter("campaign_cases_total").Value(); got != 1 {
		t.Errorf("cases_total = %d, want 1", got)
	}
	if sum := r.Obs.Histogram("campaign_case_seconds", caseSecondsBounds).Sum(); sum != 0 {
		t.Errorf("case_seconds sum = %v without a clock", sum)
	}
}
