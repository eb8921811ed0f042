package sim

import (
	"fmt"

	"uavres/internal/faultinject"
	"uavres/internal/mission"
)

// Checkpoint is a complete mid-run snapshot of a Vehicle. A campaign's
// cases share long fault-free prefixes, so the runner flies each prefix
// once, under a case with the latest injection start, snapshots it at
// every start on the way, and forks one resumed vehicle per case from the
// snapshot at its own start — each bit-identical to a straight-through
// run (see TestForkBitIdentical and TestForkFromChainBitIdentical).
//
// The snapshot is a copy of the vehicle's state value, which holds no
// pointer (TestVehicleStateIsOneValue), plus the prefix's trajectory
// capped at its length, which no one writes again. A checkpoint is
// therefore immutable after Snapshot and safe to fork from multiple
// goroutines concurrently.
type Checkpoint struct {
	cfg  Config
	m    mission.Mission
	inj  *faultinject.Injection // injection the prefix ran under (nil: gold)
	s    vehicleState
	traj []TrajPoint
}

// T returns the sim time of the first step a forked vehicle will execute.
func (c *Checkpoint) T() float64 { return float64(c.s.step) * c.cfg.PhysicsDt }

// Snapshot captures the vehicle's complete dynamic state.
func (v *Vehicle) Snapshot() *Checkpoint {
	n := len(v.traj)
	return &Checkpoint{cfg: v.cfg, m: v.m, inj: v.inj, s: v.s, traj: v.traj[:n:n]}
}

// Fork resumes the checkpoint as a new vehicle running the SAME injection
// the prefix ran under. The fork and its source share no mutable state.
func (c *Checkpoint) Fork(obs Observer) (*Vehicle, error) {
	return c.fork(c.inj, obs)
}

// ForkWithInjection resumes the checkpoint as a new vehicle running a
// DIFFERENT injection. This is only valid when the two experiments are
// indistinguishable up to the checkpoint:
//
//   - the checkpoint precedes the new injection's window (no executed step
//     observed a corrupted sample or command),
//   - the fork's injection family (sensor vs actuator) matches the prefix
//     injector's, because a sensor injector overwrites every affected
//     unit's sample with the primary's even before the window opens while
//     an actuator injector leaves the sample stream alone, and
//   - within the sensor family, the fork's scope matches the prefix
//     injector's, for the same pre-window overwrite reason.
//
// The fork gets a fresh injector for its own injection. A sensor fork's
// Freeze state is seeded from the checkpoint's last clean sample, an
// actuator fork's Stuck state from the checkpoint's last motor commands —
// exactly what a straight-through injector would have captured.
func (c *Checkpoint) ForkWithInjection(inj *faultinject.Injection, obs Observer) (*Vehicle, error) {
	if err := c.checkFork(inj); err != nil {
		return nil, err
	}
	v, err := c.fork(inj, obs)
	if err != nil || inj == nil {
		return v, err
	}
	if v.s.injector, err = faultinject.New(*inj); err != nil {
		return nil, err
	}
	if inj.SensorTarget() {
		if v.s.haveIMU {
			v.s.injector.SeedFreeze(v.s.lastClean)
		}
	} else {
		v.s.injector.SeedStuck(v.s.body.MotorCommands())
	}
	return v, nil
}

// fork builds a vehicle flying inj from the checkpoint's state.
func (c *Checkpoint) fork(inj *faultinject.Injection, obs Observer) (*Vehicle, error) {
	v, err := newShell(c.cfg, c.m, inj, obs)
	if err != nil {
		return nil, err
	}
	v.s, v.traj = c.s, c.traj
	return v, nil
}

// checkFork applies ForkWithInjection's validity rules without building
// the fork.
func (c *Checkpoint) checkFork(inj *faultinject.Injection) error {
	if (inj == nil) != (c.inj == nil) {
		return fmt.Errorf("sim: fork injection presence differs from checkpoint prefix")
	}
	if inj == nil {
		return nil
	}
	if c.s.step > 0 && float64(c.s.step-1)*c.cfg.PhysicsDt >= inj.Start.Seconds() {
		return fmt.Errorf("sim: checkpoint at t=%.3fs is past injection start %v",
			float64(c.s.step-1)*c.cfg.PhysicsDt, inj.Start)
	}
	if inj.SensorTarget() != c.inj.SensorTarget() {
		return fmt.Errorf("sim: fork injection family (%s) differs from checkpoint prefix (%s)",
			injectionFamily(inj), injectionFamily(c.inj))
	}
	if inj.Scope != c.inj.Scope {
		return fmt.Errorf("sim: fork scope %v differs from checkpoint scope %v",
			inj.Scope, c.inj.Scope)
	}
	return nil
}

// injectionFamily names the side of the fault model an injection lives on.
func injectionFamily(inj *faultinject.Injection) string {
	if inj.SensorTarget() {
		return "sensor"
	}
	return "actuator"
}
