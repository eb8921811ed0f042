package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/physics"
	"uavres/internal/sensors"
)

// TestBatchBitIdentical is the batch runner's correctness bar, mirroring
// TestForkBitIdentical: all 21 primitive x target combinations stepped in
// one lockstep batch must yield Results byte-identical to straight-through
// scalar runs — outcome, duration, distance, trajectory, and the full
// flight-data-recorder diagnostics block. This includes forks whose
// primary IMU the failsafe isolation stage rotates mid-run, which stay in
// lockstep on the shared draws.
func TestBatchBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	m := shortMission()
	const startSec = 20.0

	rep := &faultinject.Injection{
		Primitive: faultinject.FixedValue, Target: faultinject.TargetIMU,
		Start: time.Duration(startSec) * time.Second, Duration: 5 * time.Second, Seed: 77,
	}
	prefix, err := NewVehicle(cfg, m, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix.RunUntil(startSec)
	cp := prefix.Snapshot()

	var injs []*faultinject.Injection
	for _, p := range faultinject.Primitives() {
		for _, target := range faultinject.Targets() {
			injs = append(injs, &faultinject.Injection{
				Primitive: p, Target: target,
				Start: time.Duration(startSec) * time.Second, Duration: 5 * time.Second,
				Seed: 1234,
			})
		}
	}

	cps := slices.Repeat([]*Checkpoint{cp}, len(injs))
	results, forks := runBatch(t, cps, injs)

	for i, inj := range injs {
		label := inj.Label()
		straight, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatalf("%s straight: %v", label, err)
		}
		sameResult(t, label, straight, results[i])
	}
	if !anyPrimarySwitched(t, cps, forks) {
		t.Error("no fork switched its primary IMU; expected the failsafe isolation stage to rotate primaries in at least one case")
	}
	checkStreamsUntouched(t, cps, forks)
}

// TestBatchLockstepThroughPrimarySwitch pins lockstep on the voting path:
// a primary-scope gyro fault that redundancy voting rescues by switching
// primaries re-phases the fork's IMU ticks, yet the fork keeps reading
// the donor's draws by count and finishes bit-identical to the scalar run.
func TestBatchLockstepThroughPrimarySwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("long primary-scope run")
	}
	m := mission.Valencia()[4]
	cfg := DefaultConfig()
	cfg.Seed = 2 // see TestRedundancyScopeAblation: voting rescues this seed

	rep := &faultinject.Injection{
		Primitive: faultinject.Zeros, Target: faultinject.TargetGyro,
		Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 3,
		Scope: faultinject.ScopePrimaryUnit,
	}
	prefix, err := NewVehicle(cfg, m, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix.RunUntil(85)
	cp := prefix.Snapshot()

	freeze := *rep
	freeze.Primitive = faultinject.Freeze
	injs := []*faultinject.Injection{rep, &freeze}
	cps := []*Checkpoint{cp, cp}
	results, forks := runBatch(t, cps, injs)
	if !anyPrimarySwitched(t, cps, forks) {
		t.Fatal("no fork switched its primary IMU despite voting-driven primary switches")
	}
	for i, inj := range injs {
		straight, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, inj.Label(), straight, results[i])
	}
	checkStreamsUntouched(t, cps, forks)
}

// TestBatchAcrossStartsBitIdentical is the bar for a batch that spans a
// chain's starts: one prefix flown under a representative with the
// chain's latest start is snapshotted at three or more starts, every fork
// joins one batch from the snapshot at its own start, and each must match
// its straight run. The cases cover a fork joining after every earlier
// fork has ended, more than imuDrawWindow IMU sets after the newest one
// they drew (draw-ahead); a primary-scope gyro fork whose primary switches
// before a later fork joins; and a hexa actuator chain.
func TestBatchAcrossStartsBitIdentical(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	sensor := func(p faultinject.Primitive, target faultinject.Target, start, dur float64, scope faultinject.Scope) *faultinject.Injection {
		return &faultinject.Injection{Primitive: p, Target: target, Start: sec(start), Duration: sec(dur), Seed: 1234, Scope: scope}
	}
	all, primary := faultinject.ScopeAllUnits, faultinject.ScopePrimaryUnit
	allCfg := DefaultConfig()
	allCfg.RecordTrajectory = true

	for _, tc := range []struct {
		name string
		cfg  Config
		rep  *faultinject.Injection // the chain's latest start
		injs []*faultinject.Injection
		// check asserts the scenario's precondition on the batch results.
		check func(t *testing.T, cps []*Checkpoint, results []Result, forks []*Vehicle)
	}{{
		name: "join after every earlier fork ended",
		cfg:  allCfg,
		rep:  sensor(faultinject.FixedValue, faultinject.TargetIMU, 35, 5, all),
		injs: []*faultinject.Injection{
			sensor(faultinject.Random, faultinject.TargetIMU, 10, 30, all),
			sensor(faultinject.MinValue, faultinject.TargetGyro, 10, 2, all),
			sensor(faultinject.Random, faultinject.TargetGyro, 12, 10, all),
			sensor(faultinject.Noise, faultinject.TargetAccel, 30, 5, all),
			sensor(faultinject.Freeze, faultinject.TargetGyro, 35, 2, all),
		},
		check: func(t *testing.T, cps []*Checkpoint, results []Result, forks []*Vehicle) {
			newest := 0 // past the newest IMU set the earlier forks read
			for i := 0; i < 3; i++ {
				if ended := results[i].FlightDurationSec; results[i].Outcome == OutcomeCompleted || ended >= 30 {
					t.Fatalf("fork %d ended (%v) at %.2fs; the scenario needs it to end before fork 3 joins at 30s",
						i, results[i].Outcome, ended)
				}
				newest = max(newest, forks[i].s.imuSets)
			}
			if gap := cps[3].s.imuSets - newest; gap <= imuDrawWindow {
				t.Fatalf("fork 3 joins only %d IMU sets past the others' newest; want more than %d", gap, imuDrawWindow)
			}
		},
	}, {
		name: "primary switched before a later join",
		cfg:  allCfg,
		rep:  sensor(faultinject.Zeros, faultinject.TargetGyro, 30, 5, primary),
		injs: []*faultinject.Injection{
			sensor(faultinject.FixedValue, faultinject.TargetGyro, 10, 30, primary),
			sensor(faultinject.MaxValue, faultinject.TargetGyro, 20, 5, primary),
			sensor(faultinject.Freeze, faultinject.TargetGyro, 30, 5, primary),
		},
		check: func(t *testing.T, cps []*Checkpoint, results []Result, forks []*Vehicle) {
			// Fork 1 must be flying on a switched primary when fork 2 joins.
			first := -1.0
			for _, e := range results[1].Diagnostics.Trace {
				if e.Kind == obs.EventSensorSwitch {
					first = e.T
					break
				}
			}
			if first < 0 || first >= 30 || results[1].FlightDurationSec <= 30 {
				t.Fatalf("fork 1 first switched its primary at %.2fs (-1: never) and ended at %.2fs; want a switch before fork 2 joins at 30s and an end after it",
					first, results[1].FlightDurationSec)
			}
		},
	}, {
		name: "hexa actuator chain",
		cfg:  actuatorCfg(),
		rep:  actuatorInj(faultinject.StuckRotor, 0, 30),
		injs: []*faultinject.Injection{
			actuatorInj(faultinject.LossOfEffectiveness, 2, 10),
			actuatorInj(faultinject.FloatRotor, 0, 20),
			actuatorInj(faultinject.StuckRotor, 3, 20),
			actuatorInj(faultinject.LossOfEffectiveness, 1, 30),
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := NewVehicle(tc.cfg, shortMission(), tc.rep, nil)
			if err != nil {
				t.Fatal(err)
			}
			cps := make([]*Checkpoint, len(tc.injs))
			starts := map[time.Duration]bool{}
			for i, inj := range tc.injs {
				v.RunUntil(inj.Start.Seconds())
				cps[i] = v.Snapshot()
				starts[inj.Start] = true
			}
			if len(starts) < 3 {
				t.Fatalf("chain snapshotted at %d starts, want at least 3", len(starts))
			}
			results, forks := runBatch(t, cps, tc.injs)
			for i, inj := range tc.injs {
				label := fmt.Sprintf("%s@%v", inj.Label(), inj.Start)
				straight, err := Run(tc.cfg, shortMission(), inj, nil)
				if err != nil {
					t.Fatalf("%s straight: %v", label, err)
				}
				sameResult(t, label, straight, results[i])
			}
			if tc.check != nil {
				tc.check(t, cps, results, forks)
			}
			checkStreamsUntouched(t, cps, forks)
		})
	}
}

// TestBatchAcrossPrefixesBitIdentical is the bar for a batch keyed by
// flight environment: a gold run, an immediate gyro fault and a lone
// rotor-0 float join from their own launch snapshots, a sensor chain and
// an actuator chain of the same mission, seed and airframe join from
// their prefixes' snapshots, and one donor serves them all. The float
// commands a spinning hexa rotor to 0 for 30 s, long enough for its lag
// states to decay into the subnormal range, where they are flushed. Every
// fork must match its straight run.
func TestBatchAcrossPrefixesBitIdentical(t *testing.T) {
	cfg := actuatorCfg()
	m := shortMission()
	snapshot := func(inj *faultinject.Injection, at float64) *Checkpoint {
		v, err := NewVehicle(cfg, m, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		v.RunUntil(at)
		return v.Snapshot()
	}
	sensor := func(p faultinject.Primitive, start float64) *faultinject.Injection {
		return &faultinject.Injection{Primitive: p, Target: faultinject.TargetGyro,
			Start: time.Duration(start) * time.Second, Duration: 3 * time.Second, Seed: 5}
	}
	immediate, float0 := sensor(faultinject.Noise, 0), actuatorInj(faultinject.FloatRotor, 0, 5)
	sensorRep, actuatorRep := sensor(faultinject.Freeze, 20), actuatorInj(faultinject.StuckRotor, 2, 15)
	injs := []*faultinject.Injection{
		nil, immediate, float0,
		sensor(faultinject.Zeros, 10), actuatorInj(faultinject.LossOfEffectiveness, 1, 15), sensorRep,
	}
	cps := []*Checkpoint{
		snapshot(nil, 0), snapshot(immediate, 0), snapshot(float0, 0),
		snapshot(sensorRep, 10), snapshot(actuatorRep, 15), snapshot(sensorRep, 20),
	}
	results, forks := runBatch(t, cps, injs)
	for i, inj := range injs {
		label := "gold"
		if inj != nil {
			label = fmt.Sprintf("%s@%v", inj.Label(), inj.Start)
		}
		straight, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatalf("%s straight: %v", label, err)
		}
		sameResult(t, label, straight, results[i])
	}
	checkStreamsUntouched(t, cps, forks)
}

// TestNewBatchRejectsMixedEnvironment: a batch shares one donor's draws,
// so a checkpoint of another seed, airframe or mission than fork 0's must
// fail NewBatch rather than fly on foreign noise.
func TestNewBatchRejectsMixedEnvironment(t *testing.T) {
	launch := func(cfg Config, m mission.Mission) *Checkpoint {
		v, err := NewVehicle(cfg, m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v.Snapshot()
	}
	base := launch(DefaultConfig(), shortMission())
	otherSeed, otherFrame := DefaultConfig(), DefaultConfig()
	otherSeed.Seed++
	otherFrame.Airframe.Layout = physics.OctoX
	otherMission := shortMission()
	otherMission.ID++
	for _, tc := range []struct {
		name string
		cp   *Checkpoint
	}{
		{"seed", launch(otherSeed, shortMission())},
		{"airframe", launch(otherFrame, shortMission())},
		{"mission", launch(DefaultConfig(), otherMission)},
	} {
		if _, err := NewBatch([]*Checkpoint{base, tc.cp}, make([]*faultinject.Injection, 2)); err == nil {
			t.Errorf("%s: NewBatch accepted a checkpoint of another environment", tc.name)
		}
	}
	if _, err := NewBatch([]*Checkpoint{base, launch(DefaultConfig(), shortMission())}, make([]*faultinject.Injection, 2)); err != nil {
		t.Errorf("same environment: %v", err)
	}
}

// runBatch steps injs in one batch, fork i from cps[i], and returns the
// results and every fork as it finished. cps itself is left intact.
func runBatch(t *testing.T, cps []*Checkpoint, injs []*faultinject.Injection) ([]Result, []*Vehicle) {
	t.Helper()
	b, err := NewBatch(slices.Clone(cps), injs)
	if err != nil {
		t.Fatal(err)
	}
	forks := make([]*Vehicle, len(injs))
	b.finished = func(i int, v *Vehicle) { forks[i] = v }
	results, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	return results, forks
}

// anyPrimarySwitched reports whether some fork ended its run on a
// different primary IMU than its checkpoint's.
func anyPrimarySwitched(t *testing.T, cps []*Checkpoint, forks []*Vehicle) bool {
	t.Helper()
	for i, v := range forks {
		ref, err := cps[i].Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.s.imus.Primary() != ref.s.imus.Primary() {
			return true
		}
	}
	return false
}

// checkStreamsUntouched proves that no fork of a finished batch drew
// environment noise for itself: every fork's IMU units, GPS, baro, mag and
// wind streams still yield the same next deviates as a fresh fork of its
// checkpoint. It consumes those deviates, so call it after Run.
func checkStreamsUntouched(t *testing.T, cps []*Checkpoint, forks []*Vehicle) {
	t.Helper()
	for i, v := range forks {
		ref, err := cps[i].Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < ref.s.imus.Count(); u++ {
			if v.s.imus.Unit(u).DrawNoise() != ref.s.imus.Unit(u).DrawNoise() {
				t.Errorf("fork %d: IMU unit %d stream moved since the checkpoint", i, u)
			}
		}
		dt := v.cfg.PhysicsDt
		if v.s.gps.DrawNoise() != ref.s.gps.DrawNoise() || v.s.baro.DrawNoise() != ref.s.baro.DrawNoise() ||
			v.s.mag.DrawNoise() != ref.s.mag.DrawNoise() || v.s.body.StepWind(dt) != ref.s.body.StepWind(dt) {
			t.Errorf("fork %d: a GPS, baro, mag or wind stream moved since the checkpoint", i)
		}
	}
}

// TestEnvDrawsWindow pins the IMU draw-window contract: a request past
// the newest set draws forward in order, so set k is the k-th draw of the
// units however the requests skip; a re-read inside the window returns the
// same deviates; and only a set older than the window (or before the
// donor's first) is an error rather than a stale draw.
func TestEnvDrawsWindow(t *testing.T) {
	newIMUs := func() *sensors.RedundantIMUs {
		imus, err := sensors.NewRedundantIMUs(3, sensors.DefaultIMUSpec(), mathx.NewRand(5))
		if err != nil {
			t.Fatal(err)
		}
		return &imus
	}
	ref := newIMUs()
	var want [][]sensors.IMUNoise // want[k]: the units' k-th draw set
	for k := 0; k < 3*imuDrawWindow; k++ {
		want = append(want, ref.DrawNoiseInto(nil))
	}

	env := envDraws{imus: newIMUs()}
	for _, k := range []int{0, 1, 2 * imuDrawWindow, 2*imuDrawWindow + 1, 3*imuDrawWindow - 1} {
		set, err := env.imuNoise(k)
		if err != nil || !slices.Equal(set, want[k]) {
			t.Errorf("set %d: got %v, %v; want the units' draw %d %v", k, set, err, k, want[k])
		}
	}
	oldest := 2 * imuDrawWindow // the newest set is 3*imuDrawWindow-1
	if again, err := env.imuNoise(oldest); err != nil || !slices.Equal(again, want[oldest]) {
		t.Errorf("set %d inside the window: got %v, %v; want %v", oldest, again, err, want[oldest])
	}
	for _, k := range []int{oldest - 1, 1, -1} {
		if set, err := env.imuNoise(k); err == nil {
			t.Errorf("set %d older than the window [%d, %d]: got a draw %v, want an error", k, oldest, 3*imuDrawWindow-1, set)
		}
	}
	if set, err := (&envDraws{imus: newIMUs(), imuFirst: 5, imuDrawn: 5}).imuNoise(4); err == nil {
		t.Errorf("set 4 before the donor's first set 5: got a draw %v, want an error", set)
	}
}
