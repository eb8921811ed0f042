package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/obs"
)

// batchCases builds one prefix group of all 21 primitive x target
// combinations plus a gold case (which joins their batch at launch).
func batchCases() []Case {
	cases := []Case{{ID: "gold", MissionID: 1, Seed: 21}}
	for _, p := range faultinject.Primitives() {
		for _, target := range faultinject.Targets() {
			cases = append(cases, Case{
				ID: "f-" + p.String() + "-" + target.String(), MissionID: 1, Seed: 21,
				Injection: &faultinject.Injection{
					Primitive: p, Target: target,
					Start: 20 * time.Second, Duration: 5 * time.Second,
					Seed: int64(100*int(p) + int(target)),
				},
			})
		}
	}
	return cases
}

// TestRunnerBatchMatchesScalar: the lockstep batch path must produce
// byte-for-byte the results of the scalar forked path, on one start and
// across starts, including with a batch width that splits a chain into
// multiple chunks.
func TestRunnerBatchMatchesScalar(t *testing.T) {
	for _, plan := range [][]Case{batchCases(), startsCases()} {
		testBatchMatchesScalar(t, plan)
	}
}

func testBatchMatchesScalar(t *testing.T, cases []Case) {
	run := func(batch bool, width int) []CaseResult {
		r := NewRunner()
		r.Missions = shortScenario()
		r.Workers = 4
		r.Batch = batch
		r.batchWidth = width
		return r.RunAll(context.Background(), cases)
	}

	scalar := run(false, 0)
	for _, width := range []int{0, 5} {
		batched := run(true, width)
		if len(scalar) != len(batched) {
			t.Fatalf("width %d: result counts differ: %d vs %d", width, len(scalar), len(batched))
		}
		for i := range scalar {
			s, b := scalar[i], batched[i]
			if s.Err != b.Err {
				t.Errorf("width %d %s: err %q vs %q", width, s.Case.ID, s.Err, b.Err)
			}
			if s.Result.Outcome != b.Result.Outcome ||
				s.Result.FlightDurationSec != b.Result.FlightDurationSec ||
				s.Result.DistanceKm != b.Result.DistanceKm ||
				s.Result.InnerViolations != b.Result.InnerViolations ||
				s.Result.OuterViolations != b.Result.OuterViolations ||
				s.Result.WaypointsReached != b.Result.WaypointsReached ||
				s.Result.FailsafeCause != b.Result.FailsafeCause ||
				s.Result.CrashReason != b.Result.CrashReason {
				t.Errorf("width %d %s: batch result differs:\n scalar %+v\n batch  %+v",
					width, s.Case.ID, s.Result, b.Result)
			}
			if !reflect.DeepEqual(s.Result.Diagnostics, b.Result.Diagnostics) {
				t.Errorf("width %d %s: diagnostics differ between scalar and batch", width, s.Case.ID)
			}
		}
	}
}

// startsCases is the mini-starts shape on shortScenario: gyro and accel
// freeze/zeros plus a rotor-0 loss of effectiveness, each at four starts,
// and a gold case. The sensor and the rotor faults form two chains, and
// one batch of the environment spans both chains, every start and the
// gold run's launch.
func startsCases() []Case {
	cases := []Case{{ID: "gold", MissionID: 1, Seed: 21}}
	add := func(in faultinject.Injection) {
		in.Duration, in.Seed = 2*time.Second, int64(len(cases))
		cases = append(cases, Case{ID: in.Label() + "@" + in.Start.String(), MissionID: 1, Seed: 21, Injection: &in})
	}
	for _, start := range []time.Duration{10 * time.Second, 15 * time.Second, 20 * time.Second, 25 * time.Second} {
		for _, target := range []faultinject.Target{faultinject.TargetGyro, faultinject.TargetAccel} {
			for _, p := range []faultinject.Primitive{faultinject.Freeze, faultinject.Zeros} {
				add(faultinject.Injection{Primitive: p, Target: target, Start: start})
			}
		}
		add(faultinject.Injection{Primitive: faultinject.LossOfEffectiveness, Target: faultinject.TargetRotor, Start: start})
	}
	return cases
}

// TestRunnerBatchMetrics: every case of the one flight environment steps
// in a lockstep batch, the gold run included (it joins at launch), and is
// counted in the batched counter; only the faulty cases, which join from
// a chain snapshot, count as forked, and the gold case as straight. Every
// case must batch, across starts and families too: runBatch falls back to
// scalar runs silently, so without this count a dead batch path would
// pass every equality test.
func TestRunnerBatchMetrics(t *testing.T) {
	for _, plan := range []struct {
		name  string
		cases []Case
	}{{"one start", batchCases()}, {"four starts, both families", startsCases()}} {
		t.Run(plan.name, func(t *testing.T) {
			r := NewRunner()
			r.Missions = shortScenario()
			r.Workers = 2
			r.Obs = obs.NewRegistry()
			r.RunAll(context.Background(), plan.cases)

			val := func(name string) int64 { return r.Obs.Counter(name).Value() }
			faulty := int64(len(plan.cases) - 1)
			if got := val("campaign_cases_batched_total"); got != int64(len(plan.cases)) {
				t.Errorf("batched = %d, want %d", got, len(plan.cases))
			}
			if got := val("campaign_cases_forked_total"); got != faulty {
				t.Errorf("forked = %d, want %d", got, faulty)
			}
			if got := val("campaign_cases_straight_total"); got != 1 {
				t.Errorf("straight = %d, want 1 (the gold case)", got)
			}
			if got := val("campaign_cases_total"); got != int64(len(plan.cases)) {
				t.Errorf("cases_total = %d, want %d", got, len(plan.cases))
			}
		})
	}
}

// TestRunnerMixedEnvironmentFallsBack: workUnits never puts two flight
// environments in one unit, but a unit that did — a gold run joined at
// launch by a case of another seed, airframe or mission — must fail its
// batch (sim.NewBatch rejects the second checkpoint) and run case by case,
// matching the straight results.
func TestRunnerMixedEnvironmentFallsBack(t *testing.T) {
	missions := append(shortScenario(), shortScenario()[0])
	missions[1].ID = 2
	gold := Case{ID: "gold", MissionID: 1, Seed: 21}
	for _, other := range []Case{
		{ID: "seed", MissionID: 1, Seed: 22},
		{ID: "airframe", MissionID: 1, Seed: 21, Airframe: "octo-x"},
		{ID: "mission", MissionID: 2, Seed: 21},
	} {
		t.Run(other.ID, func(t *testing.T) {
			cases := []Case{gold, other}
			r := NewRunner()
			r.Missions = missions
			r.Checkpoint = false
			straight := r.RunAll(context.Background(), cases)

			r = NewRunner()
			r.Missions = missions
			r.Trace = obs.NewTracer(tickClock(), 16)
			u := workUnit{idx: []int{0, 1}}
			u.joins = r.joins(cases, make([]*chain, 2), u.idx, nil)
			if u.joins[0].cp == nil || u.joins[1].cp == nil {
				t.Fatal("a case of the unit got no launch snapshot")
			}
			results, forked, batched := r.runUnit(cases, u, nil)
			for j := range cases {
				if forked[j] || batched[j] {
					t.Errorf("%s: forked %v batched %v, want a straight run", cases[j].ID, forked[j], batched[j])
				}
				if !reflect.DeepEqual(results[j], straight[j]) {
					t.Errorf("%s: fallback result differs from the straight run", cases[j].ID)
				}
			}
			fellBack := false
			for _, v := range r.Trace.Spans() {
				for _, a := range v.Attrs {
					fellBack = fellBack || (v.Name == "batch" && a.Key == "fallback")
				}
			}
			if !fellBack {
				t.Error("no batch span marked fallback")
			}
		})
	}
}
