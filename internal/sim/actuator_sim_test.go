package sim

import (
	"slices"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/physics"
)

// actuatorCfg is the configuration the actuator fork/batch tests share: a
// hexa airframe (variable-width rotor state is the refactor's riskiest
// surface) with the rotor-FDI stack armed so detection, condemnation, and
// allocator reconfiguration all sit inside the checkpointed state.
func actuatorCfg() Config {
	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	cfg.Airframe.Layout = physics.HexaX
	cfg.Mitigation = cfg.Mitigation.RotorDefaults()
	return cfg
}

func actuatorInj(p faultinject.Primitive, rotor int, startSec float64) *faultinject.Injection {
	return &faultinject.Injection{
		Primitive: p, Target: faultinject.TargetRotor, Rotor: rotor,
		Start:    time.Duration(startSec * float64(time.Second)),
		Duration: 30 * time.Second,
		Scope:    faultinject.ScopeAllUnits,
	}
}

// TestForkBitIdenticalActuator extends the checkpoint fork's correctness
// bar to the actuator family: every rotor-fault primitive forked off a
// shared pre-fault prefix must finish byte-identical to a straight-through
// run — including the rotor monitor's strike counters and the swapped-in
// reconfigured allocator.
func TestForkBitIdenticalActuator(t *testing.T) {
	cfg := actuatorCfg()
	m := shortMission()
	const startSec = 20.0

	rep := actuatorInj(faultinject.StuckRotor, 0, startSec)
	prefix, err := NewVehicle(cfg, m, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix.RunUntil(startSec)
	cp := prefix.Snapshot()

	for _, p := range faultinject.ActuatorPrimitives() {
		for _, rotor := range []int{0, 2} {
			inj := actuatorInj(p, rotor, startSec)
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

	// Cross-family forks are rejected: a sensor injection cannot reuse an
	// actuator prefix (the pre-window mutation schedules differ).
	sensor := &faultinject.Injection{
		Primitive: faultinject.Freeze, Target: faultinject.TargetGyro,
		Start: time.Duration(startSec) * time.Second, Duration: 5 * time.Second, Seed: 9,
	}
	if _, err := cp.ForkWithInjection(sensor, nil); err == nil {
		t.Error("sensor fork accepted off an actuator prefix")
	}
}

// TestBatchBitIdenticalActuator mirrors TestForkBitIdenticalActuator on
// the lockstep batch runner.
func TestBatchBitIdenticalActuator(t *testing.T) {
	cfg := actuatorCfg()
	m := shortMission()
	const startSec = 20.0

	rep := actuatorInj(faultinject.StuckRotor, 0, startSec)
	prefix, err := NewVehicle(cfg, m, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix.RunUntil(startSec)

	var injs []*faultinject.Injection
	for _, p := range faultinject.ActuatorPrimitives() {
		for _, rotor := range []int{0, 2} {
			injs = append(injs, actuatorInj(p, rotor, startSec))
		}
	}
	results, _ := runBatch(t, slices.Repeat([]*Checkpoint{prefix.Snapshot()}, len(injs)), injs)
	for i, inj := range injs {
		straight, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatalf("%s straight: %v", inj.Label(), err)
		}
		sameResult(t, inj.Label(), straight, results[i])
	}
}

// TestAirframeRedundancyE2E pins the headline redundancy result the
// airframe axis exists to demonstrate: a free-spinning rotor (float, the
// total-failure mode) crashes the quad — three healthy rotors cannot span
// the wrench space, so reconfiguration is impossible — while the octo
// completes the same mission, and on the hexa the FDI-driven
// reconfiguration is the difference between a failsafe abort and mission
// completion.
func TestAirframeRedundancyE2E(t *testing.T) {
	m := shortMission()
	inj := actuatorInj(faultinject.FloatRotor, 0, 20)

	run := func(layout physics.Airframe, reconfig bool) Result {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Airframe.Layout = layout
		if reconfig {
			cfg.Mitigation = cfg.Mitigation.RotorDefaults()
		}
		res, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := run(physics.QuadX, true); res.Outcome != OutcomeCrash {
		t.Errorf("quad float outcome = %v (%s%s), want crash",
			res.Outcome, res.FailsafeCause, res.CrashReason)
	}
	if res := run(physics.OctoX, true); res.Outcome != OutcomeCompleted {
		t.Errorf("octo float outcome = %v (%s%s), want completed",
			res.Outcome, res.FailsafeCause, res.CrashReason)
	}
	if res := run(physics.HexaX, false); res.Outcome != OutcomeFailsafe {
		t.Errorf("hexa float without reconfig = %v (%s%s), want failsafe",
			res.Outcome, res.FailsafeCause, res.CrashReason)
	}
	res := run(physics.HexaX, true)
	if res.Outcome != OutcomeCompleted {
		t.Errorf("hexa float with reconfig = %v (%s%s), want completed",
			res.Outcome, res.FailsafeCause, res.CrashReason)
	}
	if res.Diagnostics.MitigationEngagements == 0 {
		t.Error("hexa reconfig run recorded no mitigation engagements")
	}
}
