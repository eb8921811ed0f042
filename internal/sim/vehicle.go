package sim

import (
	"fmt"
	"math"
	"strconv"

	"uavres/internal/bubble"
	"uavres/internal/control"
	"uavres/internal/ekf"
	"uavres/internal/failsafe"
	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/mitigation"
	"uavres/internal/obs"
	"uavres/internal/physics"
	"uavres/internal/sensors"
)

// Telemetry is the 1 Hz tracker-rate observation delivered to an optional
// observer: one per bubble tracking instant, carrying that instant's
// bubble sample (cmd/figures records the Fig. 2 bubble series from it).
type Telemetry struct {
	T         float64
	MissionID int
	EstPos    mathx.Vec3
	EstVel    mathx.Vec3
	TruePos   mathx.Vec3
	Airspeed  float64
	Bubble    bubble.Sample
	Phase     string
	Health    ekf.Health
	EstState  ekf.State
	TrueAtt   mathx.Quat
}

// Observer receives tracker-rate telemetry during a run.
type Observer func(Telemetry)

// Run simulates one mission to completion under the given configuration.
// inj is nil for a gold (fault-free) run. obs may be nil.
func Run(cfg Config, m mission.Mission, inj *faultinject.Injection, obs Observer) (Result, error) {
	v, err := NewVehicle(cfg, m, inj, obs)
	if err != nil {
		return Result{}, err
	}
	return v.RunToEnd(), nil
}

// Vehicle is one fully assembled simulated drone mid-run: physics, wind,
// sensors, fault injector, EKF, controller, failsafe, guidance, and the
// U-space tracker, plus the step-loop state that used to live in Run's
// locals. Factoring it out of Run makes a run interruptible: every
// mutable part lives in one value, s, so Snapshot captures the flight by
// struct copy and Checkpoint.Fork resumes bit-identically — the basis of
// checkpoint-and-fork campaign execution. The fields outside s are fixed
// at construction, derived from the inputs, or scratch buffers
// (TestVehicleStateIsOneValue argues each one).
type Vehicle struct {
	cfg Config
	m   mission.Mission
	inj *faultinject.Injection
	obs Observer

	s vehicleState

	// traj is the recorded trajectory (cfg.RecordTrajectory). Points are
	// only ever appended, so a checkpoint shares the prefix's points by
	// keeping traj[:n:n]: a fork's first append reallocates.
	traj []TrajPoint

	// Launch constants the state's components run by, built from cfg.
	frame physics.Frame // the airframe the body flies and the controller drives
	law   control.Law

	// Derived constants (from cfg, mission and injection).
	steps         int
	imuDt         float64
	votePersist   int
	voteAccelTol  float64
	voteGyroTol   float64
	distCapPerObs float64
	// overwritesAll records that the injection overwrites every IMU unit
	// with the primary's corrupted sample, so an IMU tick composes only the
	// primary: nothing reads the other units' own samples. Derived from
	// this vehicle's own injection, like covFullUntil.
	overwritesAll bool
	// covFullUntil bounds the sim time before which the EKF covariance is
	// forced to the exact per-step path on a faulted flight: everything up
	// to the end of the fault window plus CovSettleSec of settle margin.
	// The pre-fault prefix must stay exact too, not just the window: any
	// covariance difference at injection time — however small — is
	// amplified by the fault's chaotic dynamics and scrambles the
	// crash/failsafe verdict, defeating the k=4 == k=1 outcome guarantee.
	// Decimation therefore pays off on the post-settle tail of faulted
	// flights and on the whole of fault-free ones. Derived from this
	// vehicle's own injection, so checkpoint forks recompute it for THEIR
	// injection. Negative means never forced (gold runs).
	covFullUntil float64

	// Scratch buffers, fully overwritten on every IMU tick before use.
	sampleBuf [sensors.MaxIMUs]sensors.IMUSample // one sample per unit
	noiseBuf  [sensors.MaxIMUs]sensors.IMUNoise  // the straight path's own draw set
}

// vehicleState is every mutable part of a Vehicle, held by value: no
// pointer, slice, map, func, chan or interface inside (strings and the
// read-only mission route aside), so a copy shares nothing with its
// source. A checkpoint is a copy of it, and a fork copies it back. The
// launch constants its components run by (frame, law, cfg.Failsafe and
// the mission m) stay in the shell and are passed to each step.
type vehicleState struct {
	body     physics.Motion
	imus     sensors.RedundantIMUs
	gps      sensors.GPS
	baro     sensors.Baro
	mag      sensors.Mag
	injector faultinject.Injector // in use when the vehicle flies an injection
	filter   ekf.Filter
	mitigate mitigation.Pipeline
	rotorMon mitigation.RotorMonitor // in use when rotor FDI is enabled
	ctl      control.Loops
	monitor  failsafe.Monitor
	crash    failsafe.CrashDetector
	guide    guidance
	tracker  bubble.Tracker
	rec      recorder

	// Step-loop state.
	step        int               // next physics step index; sim time = step * PhysicsDt
	imuSets     int               // IMU draw sets consumed since launch, one per IMU tick
	lastIMU     sensors.IMUSample // post-mitigation primary sample
	lastClean   sensors.IMUSample // pre-injection primary sample
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

	// The outcome, once reached (zero while flying), and the Result
	// fields the step loop sets with it.
	outcome       Outcome
	flightSec     float64
	failsafeCause string
	crashReason   string
}

// newShell validates a vehicle's inputs and derives everything outside
// its state. NewVehicle then builds the state at launch; a fork copies it
// from a checkpoint, so both reject the same inputs with the same errors.
func newShell(cfg Config, m mission.Mission, inj *faultinject.Injection, obs Observer) (*Vehicle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if inj != nil {
		if err := inj.Validate(); err != nil {
			return nil, err
		}
		if !inj.SensorTarget() && inj.Rotor >= cfg.Airframe.Layout.Rotors() {
			return nil, fmt.Errorf("sim: rotor fault on rotor %d but airframe %s has %d rotors",
				inj.Rotor, cfg.Airframe.Layout, cfg.Airframe.Layout.Rotors())
		}
	}
	v := &Vehicle{
		cfg:           cfg,
		m:             m,
		inj:           inj,
		obs:           obs,
		frame:         physics.NewFrame(cfg.Airframe),
		law:           control.NewLaw(cfg.Gains),
		steps:         int(cfg.MaxSimTime / cfg.PhysicsDt),
		imuDt:         1 / cfg.IMUSpec.RateHz,
		votePersist:   cfg.VotePersistSamples,
		voteAccelTol:  cfg.VoteAccelTol,
		voteGyroTol:   cfg.VoteGyroTol,
		distCapPerObs: 3 * m.Drone.MaxSpeedMS * cfg.TrackingInterval,
		covFullUntil:  -1,
	}
	if inj != nil {
		v.covFullUntil = (inj.Start + inj.Duration).Seconds() + cfg.CovSettleSec
		v.overwritesAll = inj.SensorTarget()
		for i := 0; i < cfg.IMUCount; i++ {
			v.overwritesAll = v.overwritesAll && inj.AffectsUnit(i)
		}
	}
	if v.votePersist <= 0 {
		v.votePersist = 5
	}
	if v.voteAccelTol <= 0 {
		v.voteAccelTol = 3.0
	}
	if v.voteGyroTol <= 0 {
		v.voteGyroTol = 0.3
	}
	return v, nil
}

// NewVehicle assembles a vehicle at mission start, building each
// component in place in its state. inj is nil for a gold run; obs may be
// nil.
func NewVehicle(cfg Config, m mission.Mission, inj *faultinject.Injection, obs Observer) (*Vehicle, error) {
	v, err := newShell(cfg, m, inj, obs)
	if err != nil {
		return nil, err
	}
	s := &v.s

	// The root environment stream; every per-component stream derives
	// from it via Child.
	rng := mathx.NewRand(cfg.Seed)

	// Environment: wind direction drawn from the run seed.
	dir := rng.Float64() * 2 * math.Pi
	s.body = physics.NewMotion(*physics.NewWind(
		windFromSeed(cfg, mathx.V3(math.Cos(dir), math.Sin(dir), 0)),
		cfg.WindGustStd, 2.0,
		rng.Child(),
	))
	s.body.SetState(physics.State{Pos: m.Start, Att: mathx.QuatIdentity()})

	if s.imus, err = sensors.NewRedundantIMUs(cfg.IMUCount, cfg.IMUSpec, rng.Child()); err != nil {
		return nil, err
	}
	s.gps = sensors.NewGPS(cfg.GPSSpec, rng.Child())
	s.baro = sensors.NewBaro(cfg.BaroSpec, rng.Child())
	s.mag = sensors.NewMag(cfg.MagSpec, rng.Child())

	s.filter = ekf.New(cfg.EKF)
	s.filter.Reset(ekf.State{Att: mathx.QuatIdentity(), Pos: m.Start})
	if s.mitigate, err = mitigation.NewPipeline(cfg.Mitigation); err != nil {
		return nil, err
	}
	if s.tracker, err = bubble.NewTracker(m, cfg.RiskR, cfg.TrackingInterval); err != nil {
		return nil, err
	}
	if inj != nil {
		if s.injector, err = faultinject.New(*inj); err != nil {
			return nil, err
		}
	}
	if cfg.Mitigation.RotorFDIEnabled() {
		s.rotorMon = mitigation.NewRotorMonitor(
			cfg.Mitigation, cfg.Airframe.Layout.Rotors(), cfg.Airframe.MotorTau, v.imuDt)
	}
	s.ctl = control.NewLoops(cfg.Gains, v.imuDt)
	s.monitor = failsafe.NewMonitor()
	s.guide = newGuidance()
	s.rec = newRecorder()
	s.monitorTick = sensors.NewTicker(50)
	s.gravityTick = sensors.NewTicker(25)
	s.guideTick = sensors.NewTicker(50)
	s.prevEstPos = m.Start
	if cfg.RecordTrajectory {
		interval := cfg.TrackingInterval
		if interval <= 0 {
			interval = bubble.DefaultTrackingInterval
		}
		v.traj = make([]TrajPoint, 0, int(cfg.MaxSimTime/interval)+1)
	}
	// On the pad the controller needs an initial setpoint.
	s.sp = s.guide.update(&v.m, 0, m.Start, 0, true)
	return v, nil
}

// T returns the sim time of the next step to execute (s).
func (v *Vehicle) T() float64 { return float64(v.s.step) * v.cfg.PhysicsDt }

// Done reports whether the run reached an outcome before MaxSimTime.
func (v *Vehicle) Done() bool { return v.s.outcome != 0 }

// flying reports whether the run has steps left: no outcome yet and
// MaxSimTime not reached.
func (v *Vehicle) flying() bool { return v.s.outcome == 0 && v.s.step < v.steps }

// RunToEnd executes remaining steps until an outcome or MaxSimTime and
// returns the final result.
func (v *Vehicle) RunToEnd() Result {
	for v.flying() {
		v.stepOnce()
	}
	return v.finalize()
}

// RunUntil executes steps while sim time is below tLimit seconds (and no
// outcome has been reached). The next step to execute after return is the
// first with t >= tLimit, which makes the split point exact: forking at
// tLimit and running straight through execute identical step sequences.
func (v *Vehicle) RunUntil(tLimit float64) {
	for v.flying() && float64(v.s.step)*v.cfg.PhysicsDt < tLimit {
		v.stepOnce()
	}
}

// finalize derives the Result fields computed after the step loop. It does
// not mutate the vehicle, so it is safe to call more than once.
func (v *Vehicle) finalize() Result {
	res := Result{
		MissionID:         v.m.ID,
		Injection:         v.inj,
		Outcome:           v.s.outcome,
		FlightDurationSec: v.s.flightSec,
		DistanceKm:        v.s.distM / 1000,
		InnerViolations:   v.s.tracker.InnerViolations(),
		OuterViolations:   v.s.tracker.OuterViolations(),
		WaypointsReached:  v.s.guide.waypointsReached(),
		FailsafeCause:     v.s.failsafeCause,
		CrashReason:       v.s.crashReason,
		Trajectory:        v.traj,
	}
	if res.Outcome == 0 {
		res.Outcome = OutcomeTimeout
		res.FlightDurationSec = v.cfg.MaxSimTime
	}
	// The black-box tail is attached only to the flights the black-box
	// dumper archives — crashes and containment violations: campaign
	// results stay lean (and benign timeouts allocation-free) while
	// every dumped case carries the trajectory evidence.
	withTail := res.Outcome == OutcomeCrash || res.OuterViolations > 0
	res.Diagnostics = v.s.rec.diagnostics(v.s.filter.Health(), withTail)
	return res
}

// imuDrawWindow is how many recent IMU draw sets envDraws keeps: forks
// whose primary IMU switched read at most a few sets behind the leader.
const imuDrawWindow = 8

// envDraws carries the environment deviates a batch's donor vehicle draws
// once for every lockstep fork (see Batch). GPS, baro, mag and wind are
// drawn per tick (drawEnv); IMU draw sets are indexed by their count since
// launch (vehicleState.imuSets) and drawn on request (imuNoise). The buffers
// are reused.
type envDraws struct {
	imus      *sensors.RedundantIMUs // the donor's units
	imuSets   [imuDrawWindow][sensors.MaxIMUs]sensors.IMUNoise
	imuFirst  int // the donor's first set: earlier ones were drawn before its checkpoint
	imuDrawn  int // the next set the donor's units will draw
	gpsNoise  sensors.GPSNoise
	baroNoise float64
	magNoise  float64
	wind      mathx.Vec3
}

// imuNoise returns IMU draw set k. A set past the newest one is drawn
// forward, in order, from the donor's units: a fork that joins after every
// earlier fork has ended asks for sets nobody requested in between. A set
// older than the window, or from before the donor's checkpoint, is an
// error, never a stale draw.
func (e *envDraws) imuNoise(k int) ([]sensors.IMUNoise, error) {
	if k < e.imuFirst || k < e.imuDrawn-imuDrawWindow {
		return nil, fmt.Errorf("sim: IMU draw set %d outside the window of %d sets ending at %d", k, imuDrawWindow, e.imuDrawn)
	}
	for ; e.imuDrawn <= k; e.imuDrawn++ {
		e.imus.DrawNoiseInto(e.imuSets[e.imuDrawn%imuDrawWindow][:0])
	}
	return e.imuSets[k%imuDrawWindow][:e.imus.Count()], nil
}

// drawEnv advances the vehicle's GPS, baro, mag and wind streams by one
// physics step, consuming exactly the deviates stepOnce would, and records
// them in env. Its IMU units are drawn on demand instead (imuNoise). The
// caller is the batch runner's donor vehicle: no physics, EKF, control, or
// guidance runs, and the vehicle must never be stepped for real afterwards.
func (v *Vehicle) drawEnv(env *envDraws) {
	t := float64(v.s.step) * v.cfg.PhysicsDt
	if v.s.gps.Due(t) {
		env.gpsNoise = v.s.gps.DrawNoise()
	}
	if v.s.baro.Due(t) {
		env.baroNoise = v.s.baro.DrawNoise()
	}
	if v.s.mag.Due(t) {
		env.magNoise = v.s.mag.DrawNoise()
	}
	env.wind = v.s.body.StepWind(v.cfg.PhysicsDt)
	v.s.step++
}

// stepOnce advances the simulation by one physics step, drawing all
// environment noise from the vehicle's own streams; it cannot fail.
func (v *Vehicle) stepOnce() { _ = v.stepEnv(nil) }

// stepEnv advances the simulation by one physics step. With a nil env it
// draws environment noise from the vehicle's own streams (the scalar
// path); otherwise it composes the shared deviates in env, reading IMU
// draw set v.s.imuSets on each IMU tick, and leaves its own environment
// streams untouched (the batch path). The two paths differ only in where
// an IMU draw set comes from; both compose it with the same code and
// count the sets they consume.
func (v *Vehicle) stepEnv(env *envDraws) error {
	cfg := &v.cfg
	t := float64(v.s.step) * cfg.PhysicsDt

	// --- Sense (250 Hz), corrupt, estimate, control.
	if v.s.imus.Due(t) {
		var noise []sensors.IMUNoise
		if env == nil {
			// Every unit draws, even when only the primary is composed:
			// a snapshot of this vehicle must carry every stream forward.
			noise = v.s.imus.DrawNoiseInto(v.noiseBuf[:0])
		} else {
			var err error
			if noise, err = env.imuNoise(v.s.imuSets); err != nil {
				return err
			}
		}
		v.s.imuSets++
		all := v.sampleBuf[:v.s.imus.Count()]
		if v.overwritesAll {
			// The injector below overwrites every unit, so only the
			// primary's own sample is ever read. The vote then compares
			// identical units and cannot flag.
			all[v.s.imus.Primary()] = v.s.imus.SamplePrimaryWith(t, v.s.body.SpecificForce(), v.s.body.AngularRate(), noise)
		} else {
			all = v.s.imus.SampleAllWith(all, t, v.s.body.SpecificForce(), v.s.body.AngularRate(), noise)
		}
		clean := all[v.s.imus.Primary()]
		v.s.lastClean = clean
		if v.inj != nil {
			if v.inj.SensorTarget() {
				// The fault corrupts the sensor output stream: every
				// affected unit reads the same corrupted values.
				corrupted := v.s.injector.Apply(clean)
				for i := range all {
					if v.inj.AffectsUnit(i) {
						all[i] = corrupted
					}
				}
			}
			v.s.rec.onInjection(t, v.s.injector.Active(t))
		}
		raw := all[v.s.imus.Primary()]

		// Cross-IMU consistency voting (redundancy management): a
		// primary that persistently disagrees with the unit majority
		// is switched out long before the failsafe-level checks see
		// anything.
		if cfg.RedundancyVoting {
			if sensors.VoteOutlier(all, v.s.imus.Primary(), v.voteAccelTol, v.voteGyroTol) {
				v.s.voteStrikes++
				if v.s.voteStrikes >= v.votePersist {
					v.s.imus.SwitchPrimary()
					v.s.rec.onSensorSwitch(t)
					v.s.voteStrikes = 0
					raw = all[v.s.imus.Primary()]
					// The outgoing unit polluted recent predictions:
					// reopen uncertainty and coarse-realign attitude
					// from the incoming (trusted) unit.
					v.s.filter.NotifySensorSwitch()
					v.s.filter.RealignLevel(raw.Accel)
				}
			} else {
				v.s.voteStrikes = 0
			}
		}
		if cfg.Mitigation.Enabled() {
			// The mitigation pipeline sits where a real flight stack
			// would deploy it: after the (possibly faulty) sensor
			// output, before every consumer.
			raw, _ = v.s.mitigate.Apply(raw)
			v.s.rec.onMitigation(t, v.s.mitigate.StuckDetected())
		}
		v.s.lastIMU = raw
		v.s.haveIMU = true

		ekfSample := raw
		if cfg.ShieldEKF {
			ekfSample = clean // ablation: estimation path protected
		}
		if v.inj != nil {
			// Faulted flight: covariance at full rate from launch through
			// the fault window plus settle margin (see covFullUntil), so
			// decimation can neither seed a pre-fault difference for the
			// fault to amplify nor blur the fault-response transient.
			v.s.filter.SetCovarianceFullRate(t < v.covFullUntil)
		}
		v.s.filter.Predict(ekfSample, v.imuDt)
		if v.s.gravityTick.Due(t) {
			v.s.filter.FuseGravity(ekfSample)
		}

		est := v.s.filter.State()
		rateFeedback := raw.Gyro
		if cfg.ShieldRateLoop {
			rateFeedback = clean.Gyro // ablation: control path protected
		}
		cmd := v.s.ctl.Command(&v.law, &v.frame, v.imuDt, control.Estimate{Att: est.Att, Vel: est.Vel, Pos: est.Pos}, rateFeedback, v.s.sp)
		if v.cfg.Mitigation.RotorFDIEnabled() {
			// FDI compares what the controller intends against what the
			// rotors measurably did; the fault acts between the two.
			if v.s.rotorMon.Observe(cmd, v.s.body.RotorStates()) {
				v.onRotorCondemned(t)
			}
		}
		if v.inj != nil && !v.inj.SensorTarget() {
			// Actuator faults corrupt the command on its way to the ESC.
			cmd = v.s.injector.ApplyActuator(t, cmd)
		}
		v.s.body.SetMotorCommands(cmd)
	}

	// Hoist the per-step state copies: the body state is constant until
	// body.Step below, and the filter state is constant once the aiding
	// fusions for this step have run, so each is copied at most once per
	// step instead of per consumer.
	gpsDue := v.s.gps.Due(t)
	baroDue := v.s.baro.Due(t)
	magDue := v.s.mag.Due(t)
	monitorDue := v.s.monitorTick.Due(t)
	guideDue := v.s.guideTick.Due(t)
	trackDue := v.s.tracker.Due(t)

	var bst physics.State
	if gpsDue || baroDue || magDue || monitorDue || guideDue || trackDue {
		bst = v.s.body.State()
	}

	if gpsDue {
		var s sensors.GPSSample
		if env == nil {
			s = v.s.gps.Sample(t, bst.Pos, bst.Vel)
		} else {
			s = v.s.gps.SampleWith(t, bst.Pos, bst.Vel, env.gpsNoise)
		}
		v.s.filter.FuseGPS(s)
		v.s.rec.afterGPS(t, v.s.filter.Health())
	}
	if baroDue {
		var s sensors.BaroSample
		if env == nil {
			s = v.s.baro.Sample(t, bst.AltitudeM())
		} else {
			s = v.s.baro.SampleWith(t, bst.AltitudeM(), env.baroNoise)
		}
		v.s.filter.FuseBaro(s)
		v.s.rec.afterBaro(t, v.s.filter.Health())
	}
	if magDue {
		// The magnetometer is not a fault-injection target (paper
		// Section I): it reads true heading plus its own error model.
		_, _, trueYaw := bst.Att.Euler()
		var s sensors.MagSample
		if env == nil {
			s = v.s.mag.Sample(t, trueYaw)
		} else {
			s = v.s.mag.SampleWith(t, trueYaw, env.magNoise)
		}
		v.s.filter.FuseMag(s)
	}

	var est ekf.State
	if monitorDue || guideDue || trackDue {
		est = v.s.filter.State()
	}

	// --- Protective layer (50 Hz).
	if monitorDue && v.s.haveIMU {
		fobs := failsafe.Observation{
			T: t, IMU: v.s.lastIMU, Health: v.s.filter.Health(),
			EstVelHorizMS: est.Vel.NormXY(),
			MaxSpeedMS:    v.m.Drone.MaxSpeedMS,
			StuckSensor:   v.s.mitigate.StuckDetected(),
		}
		v.s.rec.onTilt(mathx.Rad2Deg(bst.Att.TiltAngle()))
		if v.s.monitor.Update(&cfg.Failsafe, fobs, &v.s.imus) == failsafe.PhaseActive {
			// Flight termination: record and stop.
			v.s.failsafeCause = v.s.monitor.Cause().String()
			v.end(t, OutcomeFailsafe, obs.EventFailsafe, v.s.failsafeCause)
			return nil
		}
		if bst.AltitudeM() > 2 {
			v.s.beenAir = true
		}
		if v.s.beenAir {
			v.s.crash.Update(&cfg.Failsafe, t, bst.OnGround(), v.s.body.TouchdownSpeed(), bst.Att.TiltAngle())
			if v.s.crash.Crashed() {
				v.s.crashReason = v.s.crash.Reason()
				v.end(t, OutcomeCrash, obs.EventCrash, v.s.crashReason)
				return nil
			}
		}
		if !bst.IsFinite() {
			// Integration blow-up counts as a crash: the vehicle is
			// physically gone.
			v.s.crashReason = "state blow-up"
			v.end(t, OutcomeCrash, obs.EventCrash, v.s.crashReason)
			return nil
		}
	}

	// --- Guidance (50 Hz).
	if guideDue {
		v.s.sp = v.s.guide.update(&v.m, t, est.Pos, est.Vel.Norm(), bst.OnGround())
		v.s.rec.onPhase(t, v.s.guide.phase)
		if v.s.guide.done() {
			v.end(t, OutcomeCompleted, obs.EventComplete, "")
			return nil
		}
	}

	// --- U-space tracking (1 Hz): bubbles, distance, telemetry.
	if trackDue {
		if s, ok := v.s.tracker.Observe(t, est.Pos, v.s.body.Airspeed()); ok {
			if v.s.havePrevEst {
				d := est.Pos.Dist(v.s.prevEstPos)
				// Tracker plausibility filter: a diverged estimate can
				// teleport; the tracking system bounds per-interval travel
				// by the drone's physical capability.
				v.s.distM += math.Min(d, v.distCapPerObs)
			}
			v.s.prevEstPos = est.Pos
			v.s.havePrevEst = true
			v.s.rec.onTrack(t, s.InnerViolated, s.OuterViolated, v.s.distM)

			point := TrajPoint{
				T: t, TruePos: bst.Pos, EstPos: est.Pos,
				TiltDeg: mathx.Rad2Deg(bst.Att.TiltAngle()),
			}
			// The black-box ring captures the tail unconditionally; the
			// full trajectory only when the (figure-oriented) flag asks.
			v.s.rec.onTailPoint(point)
			if cfg.RecordTrajectory {
				v.traj = append(v.traj, point)
			}
			if v.obs != nil {
				v.obs(Telemetry{
					T: t, MissionID: v.m.ID,
					EstPos: est.Pos, EstVel: est.Vel,
					TruePos: bst.Pos, Airspeed: v.s.body.Airspeed(),
					Bubble: s, Phase: v.s.guide.phase.label(),
					Health: v.s.filter.Health(), EstState: est, TrueAtt: bst.Att,
				})
			}
		}
	}

	if env == nil {
		v.s.body.Step(&v.frame, cfg.PhysicsDt)
	} else {
		v.s.body.StepWithWind(&v.frame, cfg.PhysicsDt, env.wind)
	}
	v.s.step++
	return nil
}

// end records the outcome reached at sim time t, which stops the step
// loop.
func (v *Vehicle) end(t float64, o Outcome, kind obs.EventKind, detail string) {
	v.s.outcome = o
	v.s.flightSec = t
	v.s.rec.onOutcome(t, kind, detail)
}

// onRotorCondemned reacts to the FDI monitor latching a new condemned
// rotor: record the event and, when configured, re-solve the control
// allocation around the condemned set. When too few healthy rotors are
// left to reconfigure, the vehicle keeps flying on the nominal allocation
// and the failsafe judges the outcome.
func (v *Vehicle) onRotorCondemned(t float64) {
	v.s.rec.onRotorReconfig(t)
	if !v.cfg.Mitigation.ReconfigAllocation {
		return
	}
	w := v.s.rotorMon.Weights(v.cfg.Airframe.Layout, v.cfg.Mitigation.OppositeDerate)
	a, err := v.frame.Mixer.ReconfiguredAllocator(w)
	if err != nil {
		a = nil
	}
	v.s.ctl.SetAllocator(a)
}

// label formats the phase for telemetry without allocating on the common
// path (the 1 Hz observer used to Sprintf this every sample).
func (p flightPhase) label() string {
	switch p {
	case phaseTakeoff:
		return "1"
	case phaseCruise:
		return "2"
	case phaseLand:
		return "3"
	case phaseDone:
		return "4"
	default:
		return strconv.Itoa(int(p))
	}
}
