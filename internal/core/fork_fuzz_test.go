package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/sim"
)

// fuzzCases decodes data into 2–4 faulted cases on shortScenario's
// mission, all on one environment seed so they chain. Each case takes
// four bytes (missing bytes read as zero): the fault (seven sensor
// primitives, then the three rotor primitives), its target or rotor,
// start and duration in 0.5 s steps (start 0 is an immediate injection,
// which never forks), and — for sensor faults — the scope in the fault
// byte's high bit.
func fuzzCases(data []byte) []Case {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	sensors := faultinject.Primitives()
	rotors := faultinject.ActuatorPrimitives()
	n := 2 + next()%3
	cases := make([]Case, n)
	for i := range cases {
		fault, where, start, dur := next(), next(), next(), next()
		in := &faultinject.Injection{
			Start:    time.Duration(start%81) * time.Second / 2,
			Duration: time.Duration(1+dur%60) * time.Second / 2,
			Seed:     int64(i + 1),
		}
		if k := fault % (len(sensors) + len(rotors)); k < len(sensors) {
			in.Primitive, in.Target = sensors[k], faultinject.Targets()[where%3]
			if fault&0x80 != 0 {
				in.Scope = faultinject.ScopePrimaryUnit
			}
		} else {
			in.Primitive, in.Target, in.Rotor = rotors[k-len(sensors)], faultinject.TargetRotor, where%4
		}
		cases[i] = Case{ID: in.Label() + "#" + string(rune('a'+i)), MissionID: 1, Seed: 21, Injection: in}
	}
	return cases
}

// FuzzForkMatchesStraight searches fault parameterisations for a case
// whose fork off a chain snapshot differs from its straight run: the
// default runner (chains, forks, lockstep batches) and a runner with
// Checkpoint off must return identical results, and every case must end
// in an enumerated outcome with finite numbers.
func FuzzForkMatchesStraight(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cases := fuzzCases(data)
		run := func(checkpoint bool) []CaseResult {
			r := NewRunner()
			r.Missions = shortScenario()
			r.Workers = 2
			r.Checkpoint = checkpoint
			return r.RunAll(context.Background(), cases)
		}
		straight, chained := run(false), run(true)
		for i, s := range straight {
			if s.Err != "" {
				t.Fatalf("%s: %s", s.Case.ID, s.Err)
			}
			switch s.Result.Outcome {
			case sim.OutcomeCompleted, sim.OutcomeCrash, sim.OutcomeFailsafe, sim.OutcomeTimeout:
			default:
				t.Fatalf("%s: outcome %d is not enumerated", s.Case.ID, s.Result.Outcome)
			}
			d := s.Result.Diagnostics
			for _, x := range []float64{s.Result.FlightDurationSec, s.Result.DistanceKm,
				d.FirstInnerViolationSec, d.FirstOuterViolationSec, d.DistanceAtFirstOuterKm,
				d.MaxTiltDeg, d.MaxGPSRatio, d.MaxBaroRatio} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s: non-finite result field in %+v %+v", s.Case.ID, s.Result, *d)
				}
			}
			if !reflect.DeepEqual(s, chained[i]) {
				t.Fatalf("%s: chained run differs from straight:\n straight %+v\n chained  %+v",
					s.Case.ID, s.Result, chained[i].Result)
			}
		}
	})
}
