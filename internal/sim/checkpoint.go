package sim

import (
	"fmt"

	"uavres/internal/bubble"
	"uavres/internal/control"
	"uavres/internal/ekf"
	"uavres/internal/failsafe"
	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/mitigation"
	"uavres/internal/physics"
	"uavres/internal/sensors"
)

// Checkpoint is a complete mid-run snapshot of a Vehicle. A campaign's
// cases share long fault-free prefixes, so the runner flies each prefix
// once, under a case with the latest injection start, snapshots it at
// every start on the way, and forks one resumed vehicle per case from the
// snapshot at its own start — each bit-identical to a straight-through
// run (see TestForkBitIdentical and TestForkFromChainBitIdentical).
//
// A checkpoint is immutable after Snapshot and safe to fork from multiple
// goroutines concurrently: every mutable buffer (trajectory, median
// windows) is deep-copied on capture and again on restore.
type Checkpoint struct {
	cfg Config
	m   mission.Mission
	inj *faultinject.Injection // injection the prefix ran under (nil: gold)

	step    int
	imuSets int
	done    bool
	res     Result // Trajectory deep-copied

	body        physics.BodySnapshot
	imus        sensors.RedundantIMUsSnapshot
	gps         sensors.GPSSnapshot
	baro        sensors.BaroSnapshot
	mag         sensors.MagSnapshot
	injector    faultinject.InjectorSnapshot
	hasInjector bool
	filter      ekf.FilterSnapshot
	mitigate    mitigation.PipelineSnapshot
	rotorMon    mitigation.RotorMonitorSnapshot
	hasRotorMon bool
	ctl         control.ControllerSnapshot
	monitor     failsafe.MonitorSnapshot
	crash       failsafe.CrashSnapshot
	guide       guidance // all-value state; mission slices are read-only
	tracker     bubble.TrackerSnapshot
	rec         recorder

	lastIMU     sensors.IMUSample
	lastClean   sensors.IMUSample
	haveIMU     bool
	sp          control.Setpoint
	monitorTick sensors.Ticker
	gravityTick sensors.Ticker
	guideTick   sensors.Ticker
	beenAir     bool
	voteStrikes int
	prevEstPos  mathx.Vec3
	havePrevEst bool
	distM       float64
}

// T returns the sim time of the first step a forked vehicle will execute.
func (c *Checkpoint) T() float64 { return float64(c.step) * c.cfg.PhysicsDt }

// Snapshot captures the vehicle's complete dynamic state.
func (v *Vehicle) Snapshot() *Checkpoint {
	c := &Checkpoint{
		cfg:     v.cfg,
		m:       v.m,
		inj:     v.inj,
		step:    v.step,
		imuSets: v.imuSets,
		done:    v.done,
		res:     v.res,

		body:     v.body.Snapshot(),
		imus:     v.imus.Snapshot(),
		gps:      v.gps.Snapshot(),
		baro:     v.baro.Snapshot(),
		mag:      v.mag.Snapshot(),
		filter:   v.filter.Snapshot(),
		mitigate: v.mitigate.Snapshot(),
		ctl:      v.ctl.Snapshot(),
		monitor:  v.monitor.Snapshot(),
		crash:    v.crash.Snapshot(),
		guide:    *v.guide,
		tracker:  v.tracker.Snapshot(),
		rec:      v.rec,

		lastIMU:     v.lastIMU,
		lastClean:   v.lastClean,
		haveIMU:     v.haveIMU,
		sp:          v.sp,
		monitorTick: v.monitorTick,
		gravityTick: v.gravityTick,
		guideTick:   v.guideTick,
		beenAir:     v.beenAir,
		voteStrikes: v.voteStrikes,
		prevEstPos:  v.prevEstPos,
		havePrevEst: v.havePrevEst,
		distM:       v.distM,
	}
	if v.injector != nil {
		c.injector = v.injector.Snapshot()
		c.hasInjector = true
	}
	if v.rotorMon != nil {
		c.rotorMon = v.rotorMon.Snapshot()
		c.hasRotorMon = true
	}
	if v.res.Trajectory != nil {
		c.res.Trajectory = make([]TrajPoint, len(v.res.Trajectory), cap(v.res.Trajectory))
		copy(c.res.Trajectory, v.res.Trajectory)
	}
	return c
}

// Fork resumes the checkpoint as a new vehicle running the SAME injection
// the prefix ran under. The fork and its source share no mutable state.
func (c *Checkpoint) Fork(obs Observer) (*Vehicle, error) {
	v, err := NewVehicle(c.cfg, c.m, c.inj, obs)
	if err != nil {
		return nil, err
	}
	if err := v.restoreFrom(c); err != nil {
		return nil, err
	}
	if v.injector != nil {
		v.injector.Restore(c.injector)
	}
	return v, nil
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
// A sensor fork's Freeze state is seeded from the checkpoint's last clean
// sample, an actuator fork's Stuck state from the checkpoint's last motor
// commands — exactly what a straight-through injector would have captured.
func (c *Checkpoint) ForkWithInjection(inj *faultinject.Injection, obs Observer) (*Vehicle, error) {
	if err := c.checkFork(inj); err != nil {
		return nil, err
	}
	v, err := NewVehicle(c.cfg, c.m, inj, obs)
	if err != nil {
		return nil, err
	}
	if err := v.restoreFrom(c); err != nil {
		return nil, err
	}
	if v.injector != nil {
		if v.inj.SensorTarget() {
			if v.haveIMU {
				v.injector.SeedFreeze(v.lastClean)
			}
		} else {
			v.injector.SeedStuck(v.body.MotorCommands())
		}
	}
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
	if c.step > 0 && float64(c.step-1)*c.cfg.PhysicsDt >= inj.Start.Seconds() {
		return fmt.Errorf("sim: checkpoint at t=%.3fs is past injection start %v",
			float64(c.step-1)*c.cfg.PhysicsDt, inj.Start)
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

// restoreFrom reinstates every dynamic field from the checkpoint except
// the injector (the two fork flavours differ there). The vehicle must be
// freshly built from the checkpoint's cfg and mission.
func (v *Vehicle) restoreFrom(c *Checkpoint) error {
	if err := v.body.Restore(c.body); err != nil {
		return err
	}
	if err := v.imus.Restore(c.imus); err != nil {
		return err
	}
	if err := v.gps.Restore(c.gps); err != nil {
		return err
	}
	if err := v.baro.Restore(c.baro); err != nil {
		return err
	}
	if err := v.mag.Restore(c.mag); err != nil {
		return err
	}
	v.filter.Restore(c.filter)
	if err := v.mitigate.Restore(c.mitigate); err != nil {
		return err
	}
	v.ctl.Restore(c.ctl)
	if v.rotorMon != nil && c.hasRotorMon {
		v.rotorMon.Restore(c.rotorMon)
		// The controller's allocator override is derived state: rebuild it
		// from the restored condemned set.
		if v.cfg.Mitigation.ReconfigAllocation {
			v.ctl.SetAllocator(v.reconfiguredAllocator())
		}
	}
	v.monitor.Restore(c.monitor)
	v.crash.Restore(c.crash)
	g := c.guide
	v.guide = &g
	v.tracker.Restore(c.tracker)
	v.rec = c.rec

	v.step = c.step
	v.imuSets = c.imuSets
	v.done = c.done
	v.res = c.res
	// The result identifies THIS run's experiment, not the prefix's.
	v.res.MissionID = v.m.ID
	v.res.Injection = v.inj
	if c.res.Trajectory != nil {
		v.res.Trajectory = make([]TrajPoint, len(c.res.Trajectory), cap(c.res.Trajectory))
		copy(v.res.Trajectory, c.res.Trajectory)
	}

	v.lastIMU = c.lastIMU
	v.lastClean = c.lastClean
	v.haveIMU = c.haveIMU
	v.sp = c.sp
	v.monitorTick = c.monitorTick
	v.gravityTick = c.gravityTick
	v.guideTick = c.guideTick
	v.beenAir = c.beenAir
	v.voteStrikes = c.voteStrikes
	v.prevEstPos = c.prevEstPos
	v.havePrevEst = c.havePrevEst
	v.distM = c.distM
	return nil
}
