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
// combinations plus a gold case (which can never batch).
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
		r.BatchWidth = width
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
// and a gold case. The sensor and the rotor faults form two chains whose
// chunks span every start.
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

// TestRunnerBatchMetrics: batched cases are counted both as forked (they
// are forks) and in the dedicated batched counter; the gold singleton
// stays scalar. Every fork must batch, across starts too: runBatchChunk
// falls back to scalar forks silently, so without this count a dead batch
// path would pass every equality test.
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
			if got := val("campaign_cases_batched_total"); got != faulty {
				t.Errorf("batched = %d, want %d", got, faulty)
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
