package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"uavres/internal/control"
	"uavres/internal/failsafe"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/physics"
)

// sameResult compares two Results for bit-identity (no tolerances: a fork
// must reproduce a straight-through run exactly).
func sameResult(t *testing.T, label string, straight, forked Result) {
	t.Helper()
	if forked.Outcome != straight.Outcome {
		t.Errorf("%s: outcome fork=%v straight=%v (%s%s vs %s%s)", label,
			forked.Outcome, straight.Outcome,
			forked.FailsafeCause, forked.CrashReason,
			straight.FailsafeCause, straight.CrashReason)
	}
	if forked.FlightDurationSec != straight.FlightDurationSec {
		t.Errorf("%s: duration fork=%v straight=%v", label, forked.FlightDurationSec, straight.FlightDurationSec)
	}
	if forked.DistanceKm != straight.DistanceKm {
		t.Errorf("%s: distance fork=%v straight=%v", label, forked.DistanceKm, straight.DistanceKm)
	}
	if forked.InnerViolations != straight.InnerViolations || forked.OuterViolations != straight.OuterViolations {
		t.Errorf("%s: violations fork=%d/%d straight=%d/%d", label,
			forked.InnerViolations, forked.OuterViolations,
			straight.InnerViolations, straight.OuterViolations)
	}
	if forked.WaypointsReached != straight.WaypointsReached {
		t.Errorf("%s: waypoints fork=%d straight=%d", label, forked.WaypointsReached, straight.WaypointsReached)
	}
	if forked.FailsafeCause != straight.FailsafeCause || forked.CrashReason != straight.CrashReason {
		t.Errorf("%s: cause fork=%q/%q straight=%q/%q", label,
			forked.FailsafeCause, forked.CrashReason, straight.FailsafeCause, straight.CrashReason)
	}
	if len(forked.Trajectory) != len(straight.Trajectory) {
		t.Errorf("%s: trajectory length fork=%d straight=%d", label, len(forked.Trajectory), len(straight.Trajectory))
		return
	}
	for i := range straight.Trajectory {
		if forked.Trajectory[i] != straight.Trajectory[i] {
			t.Errorf("%s: trajectory[%d] fork=%+v straight=%+v", label, i,
				forked.Trajectory[i], straight.Trajectory[i])
			return
		}
	}
	// The flight-data-recorder block must fork bit-identically too: every
	// trace event, first-violation time, and counter — and each fork owns
	// its own copy of the recorder, so nothing here can be
	// cross-contaminated by a sibling fork.
	if !reflect.DeepEqual(forked.Diagnostics, straight.Diagnostics) {
		t.Errorf("%s: diagnostics differ\nfork:     %+v\nstraight: %+v", label,
			forked.Diagnostics, straight.Diagnostics)
	}
}

// TestForkBitIdentical is the checkpoint-and-fork correctness bar: for
// every primitive x target combination, a run forked from a mid-flight
// checkpoint must be bit-identical to the same case simulated straight
// through. The prefix runs under a DIFFERENT sibling injection (same
// scope and start, as the campaign runner groups them), exercising the
// ForkWithInjection path the runner uses.
func TestForkBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	m := shortMission()
	const startSec = 20.0

	// Representative prefix injection: the runner picks the group's first
	// case. FixedValue/IMU is a different primitive AND target from most
	// forks below, which makes the test stricter.
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
	if cp.T() != startSec {
		t.Fatalf("checkpoint at t=%v, want %v", cp.T(), startSec)
	}

	for _, p := range faultinject.Primitives() {
		for _, target := range faultinject.Targets() {
			inj := &faultinject.Injection{
				Primitive: p, Target: target,
				Start: time.Duration(startSec) * time.Second, Duration: 5 * time.Second,
				Seed: 1234,
			}
			label := inj.Label()

			straight, err := Run(cfg, m, inj, nil)
			if err != nil {
				t.Fatalf("%s straight: %v", label, err)
			}

			fork, err := cp.ForkWithInjection(inj, nil)
			if err != nil {
				t.Fatalf("%s fork: %v", label, err)
			}
			sameResult(t, label, straight, fork.RunToEnd())
		}
	}
}

// TestForkFromChainBitIdentical is the bar for the runner's prefix
// chains: one vehicle flies under a representative with the chain's
// latest start and is snapshotted at every earlier start on the way.
// Every case forked from the snapshot at its own start — each primitive x
// target with mixed durations, and a hexa rotor fault on its own actuator
// chain — must be bit-identical to its straight run. A representative
// with any earlier start fires mid-chain and corrupts later snapshots.
func TestForkFromChainBitIdentical(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	starts := []float64{10, 15, 20}
	const repStart = 25.0

	// chain flies one prefix under rep, snapshotting at each start.
	chain := func(cfg Config, rep *faultinject.Injection) []*Checkpoint {
		t.Helper()
		v, err := NewVehicle(cfg, shortMission(), rep, nil)
		if err != nil {
			t.Fatal(err)
		}
		cps := make([]*Checkpoint, len(starts))
		for i, s := range starts {
			v.RunUntil(s)
			cps[i] = v.Snapshot()
		}
		return cps
	}
	check := func(cfg Config, cp *Checkpoint, inj *faultinject.Injection) {
		t.Helper()
		label := fmt.Sprintf("%s@%v+%v", inj.Label(), inj.Start, inj.Duration)
		straight, err := Run(cfg, shortMission(), inj, nil)
		if err != nil {
			t.Fatalf("%s straight: %v", label, err)
		}
		fork, err := cp.ForkWithInjection(inj, nil)
		if err != nil {
			t.Fatalf("%s fork: %v", label, err)
		}
		sameResult(t, label, straight, fork.RunToEnd())
	}

	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	cps := chain(cfg, &faultinject.Injection{
		Primitive: faultinject.FixedValue, Target: faultinject.TargetIMU,
		Start: sec(repStart), Duration: 5 * time.Second, Seed: 77,
	})
	durs := []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second, 30 * time.Second}
	n := 0
	for i, s := range starts {
		for _, p := range faultinject.Primitives() {
			for _, target := range faultinject.Targets() {
				check(cfg, cps[i], &faultinject.Injection{
					Primitive: p, Target: target,
					Start: sec(s), Duration: durs[n%len(durs)], Seed: 1234,
				})
				n++
			}
		}
	}

	hexa := actuatorCfg()
	cps = chain(hexa, actuatorInj(faultinject.StuckRotor, 0, repStart))
	for _, i := range []int{0, 2} {
		check(hexa, cps[i], actuatorInj(faultinject.LossOfEffectiveness, 2, starts[i]))
	}
}

// TestForkSameInjection covers Checkpoint.Fork: resuming the checkpoint's
// own case reproduces the straight-through run even when the checkpoint
// is taken mid-window (the injector's rng stream is part of the state).
func TestForkSameInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	m := shortMission()
	inj := &faultinject.Injection{
		Primitive: faultinject.Noise, Target: faultinject.TargetGyro,
		Start: 15 * time.Second, Duration: 10 * time.Second, Seed: 5,
	}

	straight, err := Run(cfg, m, inj, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint INSIDE the fault window: Fork must carry the injector's
	// rng mid-stream and the already-drawn fixed values.
	v, err := NewVehicle(cfg, m, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.RunUntil(18)
	fork, err := v.Snapshot().Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "mid-window fork", straight, fork.RunToEnd())
}

// TestForkGold covers gold runs: a fault-free prefix forked once per use.
func TestForkGold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	m := shortMission()

	straight, err := Run(cfg, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	v, err := NewVehicle(cfg, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.RunUntil(25)
	cp := v.Snapshot()
	fork, err := cp.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "gold fork", straight, fork.RunToEnd())

	// The checkpoint stays forkable after the first fork consumed it.
	fork2, err := cp.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "gold second fork", straight, fork2.RunToEnd())
}

// TestForkRejectsInvalid: forking with a new injection is refused when the
// checkpoint is past the window start or the scope differs, and when
// injection presence differs from the prefix.
func TestForkRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	m := shortMission()
	rep := &faultinject.Injection{
		Primitive: faultinject.Zeros, Target: faultinject.TargetGyro,
		Start: 20 * time.Second, Duration: 5 * time.Second, Seed: 1,
	}
	v, err := NewVehicle(cfg, m, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.RunUntil(25)
	cp := v.Snapshot()

	past := *rep
	if _, err := cp.ForkWithInjection(&past, nil); err == nil {
		t.Error("fork past window start accepted")
	}

	scoped := *rep
	scoped.Start = 40 * time.Second
	scoped.Scope = faultinject.ScopePrimaryUnit
	if _, err := cp.ForkWithInjection(&scoped, nil); err == nil {
		t.Error("fork with different scope accepted")
	}

	if _, err := cp.ForkWithInjection(nil, nil); err == nil {
		t.Error("gold fork from faulty prefix accepted")
	}
}

// TestVehicleStateIsOneValue guards the checkpoint's completeness. A
// checkpoint is a struct copy of vehicleState and a fork copies it back,
// so the copy is complete, and shares nothing with its source, exactly
// when the state holds no reference at any depth: no pointer, slice, map,
// func, chan or interface. Strings are immutable, and mission.Mission's
// route is read-only and already shared by every fork through
// Checkpoint.m. The state holds only what evolves: no launch constant
// (airframe, mixer, gains, failsafe thresholds) at any depth, which the
// shell holds once instead, and the whole state fits in maxStateBytes,
// since every checkpoint and fork copies it. The test also names every
// Vehicle field outside the state with the reason it may stay there: a new
// mutable field must either go into vehicleState or be argued here.
func TestVehicleStateIsOneValue(t *testing.T) {
	const maxStateBytes = 12000
	if size := unsafe.Sizeof(vehicleState{}); size > maxStateBytes {
		typ := reflect.TypeOf(vehicleState{})
		for i := 0; i < typ.NumField(); i++ {
			t.Logf("%-14s %6d B", typ.Field(i).Name, typ.Field(i).Type.Size())
		}
		t.Errorf("vehicleState is %d B, want <= %d", size, maxStateBytes)
	}
	missionType := reflect.TypeOf(mission.Mission{})
	constants := map[reflect.Type]bool{
		reflect.TypeOf(physics.Params{}):  true,
		reflect.TypeOf(physics.Mixer{}):   true,
		reflect.TypeOf(control.Gains{}):   true,
		reflect.TypeOf(failsafe.Config{}): true,
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if constants[typ] {
			t.Errorf("%s is a launch constant (%s): every snapshot would copy it; the shell holds it", path, typ)
			return
		}
		switch typ.Kind() {
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Struct:
			if typ == missionType {
				return
			}
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s: a copy of the state would share it with its source", path, typ.Kind())
		}
	}
	walk("vehicleState", reflect.TypeOf(vehicleState{}))

	outside := []struct{ field, reason string }{
		{"cfg", "configuration, fixed at construction"},
		{"m", "the mission, fixed at construction"},
		{"inj", "the injection this vehicle flies, fixed at construction"},
		{"obs", "the telemetry observer, fixed at construction"},
		{"s", "the state itself"},
		{"traj", "append-only: a checkpoint keeps traj[:n:n], so a fork's first append reallocates"},
		{"frame", "the airframe and its mixer, built from cfg; the reconfigured allocation, which changes in flight, is in the controller's state"},
		{"law", "the controller's gains and tilt slope, built from cfg"},
		{"steps", "derived from cfg"},
		{"imuDt", "derived from cfg"},
		{"votePersist", "derived from cfg"},
		{"voteAccelTol", "derived from cfg"},
		{"voteGyroTol", "derived from cfg"},
		{"distCapPerObs", "derived from cfg and the mission"},
		{"overwritesAll", "derived from the injection; each fork derives it for its own"},
		{"covFullUntil", "derived from the injection; each fork derives it for its own"},
		{"sampleBuf", "scratch, overwritten on every IMU tick before it is read"},
		{"noiseBuf", "scratch, overwritten on every IMU tick before it is read"},
	}
	typ := reflect.TypeOf(Vehicle{})
	for i := 0; i < max(typ.NumField(), len(outside)); i++ {
		var got, want string
		if i < typ.NumField() {
			got = typ.Field(i).Name
		}
		if i < len(outside) {
			want = outside[i].field
		}
		if got != want {
			t.Fatalf("Vehicle field %d is %q, the list argues %q: move a new mutable field into vehicleState, or argue it here in declaration order", i, got, want)
		}
	}
}
