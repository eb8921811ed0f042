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
// observer (the telemetry/U-space pipeline or a live monitor).
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
// locals. Factoring it out of Run makes a run interruptible: Snapshot
// captures everything, and Checkpoint.Fork resumes bit-identically —
// the basis of checkpoint-and-fork campaign execution.
type Vehicle struct {
	//lint:allow snapshotcomplete address-taken read-only in stepOnce; forks are rebuilt from the checkpoint's cfg by NewVehicle
	cfg Config
	m   mission.Mission
	inj *faultinject.Injection
	obs Observer

	wind *physics.Wind
	body *physics.Body
	imus *sensors.RedundantIMUs
	gps  *sensors.GPS
	baro *sensors.Baro
	mag  *sensors.Mag
	//lint:allow snapshotcomplete deliberately outside restoreFrom: Fork and ForkWithInjection restore different injectors
	injector *faultinject.Injector
	filter   *ekf.Filter
	mitigate *mitigation.Pipeline
	rotorMon *mitigation.RotorMonitor
	ctl      *control.Controller
	monitor  *failsafe.Monitor
	crash    *failsafe.CrashDetector
	guide    *guidance
	tracker  *bubble.Tracker
	rec      recorder

	res  Result
	done bool

	// Step-loop state.
	step        int // next physics step index; sim time = step * PhysicsDt
	imuSets     int // IMU draw sets consumed since launch, one per IMU tick
	steps       int
	imuDt       float64
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

	// Derived constants (from cfg; never snapshotted).
	votePersist   int
	voteAccelTol  float64
	voteGyroTol   float64
	distCapPerObs float64
	sampleBuf     []sensors.IMUSample // one sample per unit, reused every IMU tick
	//lint:allow snapshotcomplete scratch buffer fully overwritten by DrawNoiseInto before every use
	noiseBuf []sensors.IMUNoise // the straight path's own draw set, reused every IMU tick
	// noiseArr backs noiseBuf for up to three units (PX4's count) without
	// an allocation; DrawNoiseInto grows noiseBuf past it.
	noiseArr [3]sensors.IMUNoise
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
}

// NewVehicle assembles a vehicle at mission start. inj is nil for a gold
// run; obs may be nil.
func NewVehicle(cfg Config, m mission.Mission, inj *faultinject.Injection, obs Observer) (*Vehicle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	// The root environment stream carries the campaign's RNG policy; every
	// derived per-component stream inherits it via Child. The seed
	// derivation is bit-identical to the historical NewRand(rng.Int63())
	// chain, so polar-policy runs reproduce every recorded campaign.
	pol, _ := mathx.ParseNormPolicy(cfg.RNGPolicy) // already validated above
	rng := mathx.NewRandPolicy(cfg.Seed, pol)

	// Environment: wind direction drawn from the run seed.
	dir := rng.Float64() * 2 * math.Pi
	wind := physics.NewWind(
		windFromSeed(cfg, mathx.V3(math.Cos(dir), math.Sin(dir), 0)),
		cfg.WindGustStd, 2.0,
		rng.Child(),
	)

	body, err := physics.NewBody(cfg.Airframe, wind)
	if err != nil {
		return nil, err
	}
	body.SetState(physics.State{Pos: m.Start, Att: mathx.QuatIdentity()})

	imus, err := sensors.NewRedundantIMUs(cfg.IMUCount, cfg.IMUSpec, rng.Child())
	if err != nil {
		return nil, err
	}
	gps := sensors.NewGPS(cfg.GPSSpec, rng.Child())
	baro := sensors.NewBaro(cfg.BaroSpec, rng.Child())
	mag := sensors.NewMag(cfg.MagSpec, rng.Child())

	var injector *faultinject.Injector
	if inj != nil {
		injector, err = faultinject.New(*inj)
		if err != nil {
			return nil, err
		}
		if !inj.SensorTarget() && inj.Rotor >= cfg.Airframe.Layout.Rotors() {
			return nil, fmt.Errorf("sim: rotor fault on rotor %d but airframe %s has %d rotors",
				inj.Rotor, cfg.Airframe.Layout, cfg.Airframe.Layout.Rotors())
		}
	}

	filter := ekf.New(cfg.EKF)
	filter.Reset(ekf.State{Att: mathx.QuatIdentity(), Pos: m.Start})

	mitigate, err := mitigation.NewPipeline(cfg.Mitigation)
	if err != nil {
		return nil, err
	}

	tracker, err := bubble.NewTracker(m, cfg.RiskR, cfg.TrackingInterval)
	if err != nil {
		return nil, err
	}

	v := &Vehicle{
		cfg:      cfg,
		m:        m,
		inj:      inj,
		obs:      obs,
		wind:     wind,
		body:     body,
		imus:     imus,
		gps:      gps,
		baro:     baro,
		mag:      mag,
		injector: injector,
		filter:   filter,
		mitigate: mitigate,
		ctl:      control.New(cfg.Gains, cfg.Airframe, 1/cfg.IMUSpec.RateHz),
		monitor:  failsafe.NewMonitor(cfg.Failsafe),
		crash:    failsafe.NewCrashDetector(cfg.Failsafe),
		guide:    newGuidance(m),
		tracker:  tracker,
		rec:      newRecorder(),

		res:         Result{MissionID: m.ID, Injection: inj},
		steps:       int(cfg.MaxSimTime / cfg.PhysicsDt),
		imuDt:       1 / cfg.IMUSpec.RateHz,
		monitorTick: sensors.NewTicker(50),
		gravityTick: sensors.NewTicker(25),
		guideTick:   sensors.NewTicker(50),
		prevEstPos:  m.Start,

		votePersist:   cfg.VotePersistSamples,
		voteAccelTol:  cfg.VoteAccelTol,
		voteGyroTol:   cfg.VoteGyroTol,
		distCapPerObs: 3 * m.Drone.MaxSpeedMS * cfg.TrackingInterval,
		sampleBuf:     make([]sensors.IMUSample, imus.Count()),
		covFullUntil:  -1,
	}
	v.noiseBuf = v.noiseArr[:0]
	if inj != nil {
		v.covFullUntil = (inj.Start + inj.Duration).Seconds() + cfg.CovSettleSec
		v.overwritesAll = inj.SensorTarget()
		for i := 0; i < imus.Count(); i++ {
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
	if cfg.Mitigation.RotorFDIEnabled() {
		v.rotorMon = mitigation.NewRotorMonitor(
			cfg.Mitigation, cfg.Airframe.Layout.Rotors(), cfg.Airframe.MotorTau, v.imuDt)
	}
	if cfg.RecordTrajectory {
		interval := cfg.TrackingInterval
		if interval <= 0 {
			interval = bubble.DefaultTrackingInterval
		}
		v.res.Trajectory = make([]TrajPoint, 0, int(cfg.MaxSimTime/interval)+1)
	}
	// On the pad the controller needs an initial setpoint.
	v.sp = v.guide.update(0, m.Start, 0, true)
	return v, nil
}

// T returns the sim time of the next step to execute (s).
func (v *Vehicle) T() float64 { return float64(v.step) * v.cfg.PhysicsDt }

// Done reports whether the run reached an outcome before MaxSimTime.
func (v *Vehicle) Done() bool { return v.done }

// RunToEnd executes remaining steps until an outcome or MaxSimTime and
// returns the final result.
func (v *Vehicle) RunToEnd() Result {
	for !v.done && v.step < v.steps {
		v.stepOnce()
	}
	return v.finalize()
}

// RunUntil executes steps while sim time is below tLimit seconds (and no
// outcome has been reached). The next step to execute after return is the
// first with t >= tLimit, which makes the split point exact: forking at
// tLimit and running straight through execute identical step sequences.
func (v *Vehicle) RunUntil(tLimit float64) {
	for !v.done && v.step < v.steps && float64(v.step)*v.cfg.PhysicsDt < tLimit {
		v.stepOnce()
	}
}

// finalize derives the Result fields computed after the step loop. It does
// not mutate the vehicle, so it is safe to call more than once.
func (v *Vehicle) finalize() Result {
	res := v.res
	if res.Outcome == 0 {
		res.Outcome = OutcomeTimeout
		res.FlightDurationSec = v.cfg.MaxSimTime
	}
	res.DistanceKm = v.distM / 1000
	res.InnerViolations = v.tracker.InnerViolations()
	res.OuterViolations = v.tracker.OuterViolations()
	res.WaypointsReached = v.guide.waypointsReached()
	// The black-box tail is attached only to the flights the black-box
	// dumper archives — crashes and containment violations: campaign
	// results stay lean (and benign timeouts allocation-free) while
	// every dumped case carries the trajectory evidence.
	withTail := res.Outcome == OutcomeCrash || res.OuterViolations > 0
	res.Diagnostics = v.rec.diagnostics(v.filter.Health(), withTail)
	return res
}

// imuDrawWindow is how many recent IMU draw sets envDraws keeps: forks
// whose primary IMU switched read at most a few sets behind the leader.
const imuDrawWindow = 8

// envDraws carries the environment deviates a batch's donor vehicle draws
// once for every lockstep fork (see Batch). GPS, baro, mag and wind are
// drawn per tick (drawEnv); IMU draw sets are indexed by their count since
// launch (Vehicle.imuSets) and drawn on request (imuNoise). The buffers
// are reused.
type envDraws struct {
	imus      *sensors.RedundantIMUs // the donor's units
	imuSets   [imuDrawWindow][]sensors.IMUNoise
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
		set := &e.imuSets[e.imuDrawn%imuDrawWindow]
		*set = e.imus.DrawNoiseInto(*set)
	}
	return e.imuSets[k%imuDrawWindow], nil
}

// drawEnv advances the vehicle's GPS, baro, mag and wind streams by one
// physics step, consuming exactly the deviates stepOnce would, and records
// them in env. Its IMU units are drawn on demand instead (imuNoise). The
// caller is the batch runner's donor vehicle: no physics, EKF, control, or
// guidance runs, and the vehicle must never be stepped for real afterwards.
func (v *Vehicle) drawEnv(env *envDraws) {
	t := float64(v.step) * v.cfg.PhysicsDt
	if v.gps.Due(t) {
		env.gpsNoise = v.gps.DrawNoise()
	}
	if v.baro.Due(t) {
		env.baroNoise = v.baro.DrawNoise()
	}
	if v.mag.Due(t) {
		env.magNoise = v.mag.DrawNoise()
	}
	env.wind = v.body.StepWind(v.cfg.PhysicsDt)
	v.step++
}

// stepOnce advances the simulation by one physics step, drawing all
// environment noise from the vehicle's own streams; it cannot fail.
func (v *Vehicle) stepOnce() { _ = v.stepEnv(nil) }

// stepEnv advances the simulation by one physics step. With a nil env it
// draws environment noise from the vehicle's own streams (the scalar
// path); otherwise it composes the shared deviates in env, reading IMU
// draw set v.imuSets on each IMU tick, and leaves its own environment
// streams untouched (the batch path). The two paths differ only in where
// an IMU draw set comes from; both compose it with the same code and
// count the sets they consume.
func (v *Vehicle) stepEnv(env *envDraws) error {
	cfg := &v.cfg
	t := float64(v.step) * cfg.PhysicsDt

	// --- Sense (250 Hz), corrupt, estimate, control.
	if v.imus.Due(t) {
		var noise []sensors.IMUNoise
		if env == nil {
			// Every unit draws, even when only the primary is composed:
			// a snapshot of this vehicle must carry every stream forward.
			v.noiseBuf = v.imus.DrawNoiseInto(v.noiseBuf)
			noise = v.noiseBuf
		} else {
			var err error
			if noise, err = env.imuNoise(v.imuSets); err != nil {
				return err
			}
		}
		v.imuSets++
		all := v.sampleBuf
		if v.overwritesAll {
			// The injector below overwrites every unit, so only the
			// primary's own sample is ever read. The vote then compares
			// identical units and cannot flag.
			all[v.imus.Primary()] = v.imus.SamplePrimaryWith(t, v.body.SpecificForce(), v.body.AngularRate(), noise)
		} else {
			all = v.imus.SampleAllWith(all, t, v.body.SpecificForce(), v.body.AngularRate(), noise)
		}
		clean := all[v.imus.Primary()]
		v.lastClean = clean
		if v.injector != nil {
			if v.inj.SensorTarget() {
				// The fault corrupts the sensor output stream: every
				// affected unit reads the same corrupted values.
				corrupted := v.injector.Apply(clean)
				for i := range all {
					if v.inj.AffectsUnit(i) {
						all[i] = corrupted
					}
				}
			}
			v.rec.onInjection(t, v.injector.Active(t))
		}
		raw := all[v.imus.Primary()]

		// Cross-IMU consistency voting (redundancy management): a
		// primary that persistently disagrees with the unit majority
		// is switched out long before the failsafe-level checks see
		// anything.
		if cfg.RedundancyVoting {
			if sensors.VoteOutlier(all, v.imus.Primary(), v.voteAccelTol, v.voteGyroTol) {
				v.voteStrikes++
				if v.voteStrikes >= v.votePersist {
					v.imus.SwitchPrimary()
					v.rec.onSensorSwitch(t)
					v.voteStrikes = 0
					raw = all[v.imus.Primary()]
					// The outgoing unit polluted recent predictions:
					// reopen uncertainty and coarse-realign attitude
					// from the incoming (trusted) unit.
					v.filter.NotifySensorSwitch()
					v.filter.RealignLevel(raw.Accel)
				}
			} else {
				v.voteStrikes = 0
			}
		}
		if cfg.Mitigation.Enabled() {
			// The mitigation pipeline sits where a real flight stack
			// would deploy it: after the (possibly faulty) sensor
			// output, before every consumer.
			raw, _ = v.mitigate.Apply(raw)
			v.rec.onMitigation(t, v.mitigate.StuckDetected())
		}
		v.lastIMU = raw
		v.haveIMU = true

		ekfSample := raw
		if cfg.ShieldEKF {
			ekfSample = clean // ablation: estimation path protected
		}
		if v.injector != nil {
			// Faulted flight: covariance at full rate from launch through
			// the fault window plus settle margin (see covFullUntil), so
			// decimation can neither seed a pre-fault difference for the
			// fault to amplify nor blur the fault-response transient.
			v.filter.SetCovarianceFullRate(t < v.covFullUntil)
		}
		v.filter.Predict(ekfSample, v.imuDt)
		if v.gravityTick.Due(t) {
			v.filter.FuseGravity(ekfSample)
		}

		est := v.filter.State()
		rateFeedback := raw.Gyro
		if cfg.ShieldRateLoop {
			rateFeedback = clean.Gyro // ablation: control path protected
		}
		cmd := v.ctl.Command(v.imuDt, control.Estimate{Att: est.Att, Vel: est.Vel, Pos: est.Pos}, rateFeedback, v.sp)
		if v.rotorMon != nil {
			// FDI compares what the controller intends against what the
			// rotors measurably did; the fault acts between the two.
			if v.rotorMon.Observe(cmd, v.body.RotorStates()) {
				v.onRotorCondemned(t)
			}
		}
		if v.injector != nil && !v.inj.SensorTarget() {
			// Actuator faults corrupt the command on its way to the ESC.
			cmd = v.injector.ApplyActuator(t, cmd)
		}
		v.body.SetMotorCommands(cmd)
	}

	// Hoist the per-step state copies: the body state is constant until
	// body.Step below, and the filter state is constant once the aiding
	// fusions for this step have run, so each is copied at most once per
	// step instead of per consumer.
	gpsDue := v.gps.Due(t)
	baroDue := v.baro.Due(t)
	magDue := v.mag.Due(t)
	monitorDue := v.monitorTick.Due(t)
	guideDue := v.guideTick.Due(t)
	trackDue := v.tracker.Due(t)

	var bst physics.State
	if gpsDue || baroDue || magDue || monitorDue || guideDue || trackDue {
		bst = v.body.State()
	}

	if gpsDue {
		var s sensors.GPSSample
		if env == nil {
			s = v.gps.Sample(t, bst.Pos, bst.Vel)
		} else {
			s = v.gps.SampleWith(t, bst.Pos, bst.Vel, env.gpsNoise)
		}
		v.filter.FuseGPS(s)
		v.rec.afterGPS(t, v.filter.Health())
	}
	if baroDue {
		var s sensors.BaroSample
		if env == nil {
			s = v.baro.Sample(t, bst.AltitudeM())
		} else {
			s = v.baro.SampleWith(t, bst.AltitudeM(), env.baroNoise)
		}
		v.filter.FuseBaro(s)
		v.rec.afterBaro(t, v.filter.Health())
	}
	if magDue {
		// The magnetometer is not a fault-injection target (paper
		// Section I): it reads true heading plus its own error model.
		_, _, trueYaw := bst.Att.Euler()
		var s sensors.MagSample
		if env == nil {
			s = v.mag.Sample(t, trueYaw)
		} else {
			s = v.mag.SampleWith(t, trueYaw, env.magNoise)
		}
		v.filter.FuseMag(s)
	}

	var est ekf.State
	if monitorDue || guideDue || trackDue {
		est = v.filter.State()
	}

	// --- Protective layer (50 Hz).
	if monitorDue && v.haveIMU {
		fobs := failsafe.Observation{
			T: t, IMU: v.lastIMU, Health: v.filter.Health(),
			EstVelHorizMS: est.Vel.NormXY(),
			MaxSpeedMS:    v.m.Drone.MaxSpeedMS,
			StuckSensor:   v.mitigate.StuckDetected(),
		}
		v.rec.onTilt(mathx.Rad2Deg(bst.Att.TiltAngle()))
		if v.monitor.Update(fobs, v.imus) == failsafe.PhaseActive {
			// Flight termination: record and stop.
			v.res.Outcome = OutcomeFailsafe
			v.res.FailsafeCause = v.monitor.Cause().String()
			v.res.FlightDurationSec = t
			v.rec.onOutcome(t, obs.EventFailsafe, v.res.FailsafeCause)
			v.done = true
			return nil
		}
		if bst.AltitudeM() > 2 {
			v.beenAir = true
		}
		if v.beenAir {
			v.crash.Update(t, bst.OnGround(), v.body.TouchdownSpeed(), bst.Att.TiltAngle())
			if v.crash.Crashed() {
				v.res.Outcome = OutcomeCrash
				v.res.CrashReason = v.crash.Reason()
				v.res.FlightDurationSec = t
				v.rec.onOutcome(t, obs.EventCrash, v.res.CrashReason)
				v.done = true
				return nil
			}
		}
		if !bst.IsFinite() {
			// Integration blow-up counts as a crash: the vehicle is
			// physically gone.
			v.res.Outcome = OutcomeCrash
			v.res.CrashReason = "state blow-up"
			v.res.FlightDurationSec = t
			v.rec.onOutcome(t, obs.EventCrash, v.res.CrashReason)
			v.done = true
			return nil
		}
	}

	// --- Guidance (50 Hz).
	if guideDue {
		v.sp = v.guide.update(t, est.Pos, est.Vel.Norm(), bst.OnGround())
		v.rec.onPhase(t, v.guide.phase)
		if v.guide.done() {
			v.res.Outcome = OutcomeCompleted
			v.res.FlightDurationSec = t
			v.rec.onOutcome(t, obs.EventComplete, "")
			v.done = true
			return nil
		}
	}

	// --- U-space tracking (1 Hz): bubbles, distance, telemetry.
	if trackDue {
		if s, ok := v.tracker.Observe(t, est.Pos, v.body.Airspeed()); ok {
			if v.havePrevEst {
				d := est.Pos.Dist(v.prevEstPos)
				// Tracker plausibility filter: a diverged estimate can
				// teleport; the tracking system bounds per-interval travel
				// by the drone's physical capability.
				v.distM += math.Min(d, v.distCapPerObs)
			}
			v.prevEstPos = est.Pos
			v.havePrevEst = true
			v.rec.onTrack(t, s.InnerViolated, s.OuterViolated, v.distM)

			point := TrajPoint{
				T: t, TruePos: bst.Pos, EstPos: est.Pos,
				TiltDeg: mathx.Rad2Deg(bst.Att.TiltAngle()),
			}
			// The black-box ring captures the tail unconditionally; the
			// full trajectory only when the (figure-oriented) flag asks.
			v.rec.onTailPoint(point)
			if cfg.RecordTrajectory {
				v.res.Trajectory = append(v.res.Trajectory, point)
			}
			if v.obs != nil {
				v.obs(Telemetry{
					T: t, MissionID: v.m.ID,
					EstPos: est.Pos, EstVel: est.Vel,
					TruePos: bst.Pos, Airspeed: v.body.Airspeed(),
					Bubble: s, Phase: v.guide.phase.label(),
					Health: v.filter.Health(), EstState: est, TrueAtt: bst.Att,
				})
			}
		}
	}

	if env == nil {
		v.body.Step(cfg.PhysicsDt)
	} else {
		v.body.StepWithWind(cfg.PhysicsDt, env.wind)
	}
	v.step++
	return nil
}

// onRotorCondemned reacts to the FDI monitor latching a new condemned
// rotor: record the event and, when configured, re-solve the control
// allocation around the condemned set.
func (v *Vehicle) onRotorCondemned(t float64) {
	v.rec.onRotorReconfig(t)
	if v.cfg.Mitigation.ReconfigAllocation {
		v.ctl.SetAllocator(v.reconfiguredAllocator())
	}
}

// reconfiguredAllocator maps the monitor's current condemned set to a
// weighted allocation, or nil when the airframe cannot be reconfigured
// (nothing condemned, or too few healthy rotors — then the vehicle keeps
// flying on the nominal allocation and the failsafe judges the outcome).
func (v *Vehicle) reconfiguredAllocator() *physics.Allocator {
	if v.rotorMon == nil || !v.rotorMon.AnyCondemned() {
		return nil
	}
	w := v.rotorMon.Weights(v.cfg.Airframe.Layout, v.cfg.Mitigation.OppositeDerate)
	a, err := v.body.Mixer().ReconfiguredAllocator(w)
	if err != nil {
		return nil
	}
	return a
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
