package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/physics"
	"uavres/internal/sim"
)

// fuzzCases decodes data into 2–5 faulted cases on shortScenario's
// mission, all on one environment seed and airframe so they share one
// flight environment, and reports the airframe. The header byte holds the
// case count in its low nibble, the airframe in bits 4–5 (quad, hexa,
// octo) and, in its high bit, a gold case added first. Each case takes
// four bytes (missing bytes read as zero): the fault (seven sensor
// primitives, then the three rotor primitives), its target or rotor,
// start and duration in 0.5 s steps (start 0 is an immediate injection,
// which joins at launch), and — for sensor faults — the scope in the
// fault byte's high bit. One byte after the cases offsets the environment
// seed from 21, so an input that ends with its cases keeps seed 21.
func fuzzCases(data []byte) ([]Case, physics.Airframe) {
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
	header := next()
	n := 2 + (header&0x0f)%4
	frame := physics.Airframes()[(header>>4&3)%3]
	airframe := ""
	if frame != physics.QuadX {
		airframe = frame.String()
	}
	var cases []Case
	if header&0x80 != 0 {
		cases = append(cases, Case{ID: "gold", MissionID: 1, Seed: 21, Airframe: airframe})
	}
	for i := 0; i < n; i++ {
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
		cases = append(cases, Case{ID: in.Label() + "#" + string(rune('a'+i)), MissionID: 1, Seed: 21, Airframe: airframe, Injection: in})
	}
	seed := int64(21 + next())
	for i := range cases {
		cases[i].Seed = seed
	}
	return cases, frame
}

// FuzzForkMatchesStraight searches fault parameterisations and airframes
// for a case whose fork off a chain snapshot, or whose run in its flight
// environment's lockstep batch, differs from its straight run: the
// default runner (chains, forks, environment batches) and a runner with
// Checkpoint off must return identical results, and every case must end
// in an enumerated outcome with finite numbers. Hexa and octo fly with
// rotor FDI and reconfiguration, as the redundancy matrix does.
func FuzzForkMatchesStraight(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cases, frame := fuzzCases(data)
		run := func(checkpoint bool) []CaseResult {
			r := NewRunner()
			r.Missions = shortScenario()
			r.Workers = 2
			if frame != physics.QuadX {
				r.Config.Mitigation = r.Config.Mitigation.RotorDefaults()
			}
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
