package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"uavres/internal/faultinject"
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
	// its own instruments, so nothing here can be cross-contaminated by a
	// sibling fork.
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

	// Checkpoint INSIDE the fault window: Fork must restore the injector's
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
