package sim

import (
	"slices"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
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

	b, err := NewBatch(cp, injs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}

	for i, inj := range injs {
		label := inj.Label()
		straight, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatalf("%s straight: %v", label, err)
		}
		sameResult(t, label, straight, results[i])
	}
	if !anyPrimarySwitched(b) {
		t.Error("no fork switched its primary IMU; expected the failsafe isolation stage to rotate primaries in at least one case")
	}
	checkStreamsUntouched(t, cp, b)
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
	b, err := NewBatch(cp, injs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !anyPrimarySwitched(b) {
		t.Fatal("no fork switched its primary IMU despite voting-driven primary switches")
	}
	for i, inj := range injs {
		straight, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, inj.Label(), straight, results[i])
	}
	checkStreamsUntouched(t, cp, b)
}

// anyPrimarySwitched reports whether some fork of b ended its run on a
// different primary IMU than the checkpoint's, which the donor keeps.
func anyPrimarySwitched(b *Batch) bool {
	for _, v := range b.forks {
		if v.imus.Primary() != b.donor.imus.Primary() {
			return true
		}
	}
	return false
}

// checkStreamsUntouched proves that no fork of a finished batch drew
// environment noise for itself: every fork's IMU units, GPS, baro, mag and
// wind streams still yield the same next deviates as a fresh fork of the
// checkpoint. It consumes those deviates, so call it after Run.
func checkStreamsUntouched(t *testing.T, cp *Checkpoint, b *Batch) {
	t.Helper()
	for i, v := range b.forks {
		ref, err := cp.Fork(nil)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < ref.imus.Count(); u++ {
			if v.imus.Unit(u).DrawNoise() != ref.imus.Unit(u).DrawNoise() {
				t.Errorf("fork %d: IMU unit %d stream moved since the checkpoint", i, u)
			}
		}
		dt := v.cfg.PhysicsDt
		if v.gps.DrawNoise() != ref.gps.DrawNoise() || v.baro.DrawNoise() != ref.baro.DrawNoise() ||
			v.mag.DrawNoise() != ref.mag.DrawNoise() || v.body.StepWind(dt) != ref.body.StepWind(dt) {
			t.Errorf("fork %d: a GPS, baro, mag or wind stream moved since the checkpoint", i)
		}
	}
}

// TestEnvDrawsWindow pins the IMU draw-window guard: sets are drawn in
// order on first request, a re-read inside the window returns the same
// deviates, and a set that left the window (or is not next) is an error
// rather than a stale draw.
func TestEnvDrawsWindow(t *testing.T) {
	imus, err := sensors.NewRedundantIMUs(3, sensors.DefaultIMUSpec(), mathx.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	env := envDraws{imus: imus}
	var sets [][]sensors.IMUNoise
	for k := 0; k <= imuDrawWindow; k++ {
		set, err := env.imuNoise(k)
		if err != nil {
			t.Fatalf("set %d: %v", k, err)
		}
		sets = append(sets, slices.Clone(set))
	}
	if again, err := env.imuNoise(1); err != nil || !slices.Equal(again, sets[1]) {
		t.Errorf("set 1 inside the window: got %v, %v; want the first read %v", again, err, sets[1])
	}
	for _, k := range []int{0, -1, imuDrawWindow + 2} {
		if set, err := env.imuNoise(k); err == nil {
			t.Errorf("set %d outside the window [1, %d]: got a draw %v, want an error", k, imuDrawWindow+1, set)
		}
	}
}

// TestBatchZigguratPolicy runs the batch under the non-default RNG policy:
// the run must complete, be deterministic, and stay bit-identical to the
// scalar path under the same policy (the equivalence proof is
// policy-independent).
func TestBatchZigguratPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	cfg.RNGPolicy = "ziggurat"
	m := shortMission()
	const startSec = 20.0

	injs := []*faultinject.Injection{
		{Primitive: faultinject.Noise, Target: faultinject.TargetGyro,
			Start: time.Duration(startSec) * time.Second, Duration: 5 * time.Second, Seed: 9},
		{Primitive: faultinject.Zeros, Target: faultinject.TargetAccel,
			Start: time.Duration(startSec) * time.Second, Duration: 5 * time.Second, Seed: 9},
	}

	prefix, err := NewVehicle(cfg, m, injs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix.RunUntil(startSec)
	b, err := NewBatch(prefix.Snapshot(), injs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}

	for i, inj := range injs {
		straight, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "ziggurat "+inj.Label(), straight, results[i])

		// Determinism: a second straight run reproduces the first.
		again, err := Run(cfg, m, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "ziggurat repeat "+inj.Label(), straight, again)
	}
}

// TestZigguratPolicyChangesStream sanity-checks that the policy knob is
// actually wired through: the same case under polar and ziggurat must not
// produce identical trajectories (the noise streams differ).
func TestZigguratPolicyChangesStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordTrajectory = true
	m := shortMission()
	polar, err := Run(cfg, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RNGPolicy = "ziggurat"
	zig, err := Run(cfg, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(polar.Trajectory) == 0 || len(zig.Trajectory) == 0 {
		t.Fatal("missing trajectories")
	}
	same := len(polar.Trajectory) == len(zig.Trajectory)
	if same {
		for i := range polar.Trajectory {
			if polar.Trajectory[i] != zig.Trajectory[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("polar and ziggurat runs produced identical trajectories; policy not wired through")
	}
}
