// Package micro is the registry of per-layer micro-benchmark bodies the
// campaign benchmark prices its kernel call counts with. Each body is a
// plain func(*testing.B), so a `go test` benchmark can run the same code.
package micro

import (
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"uavres/internal/bubble"
	"uavres/internal/control"
	"uavres/internal/core"
	"uavres/internal/ekf"
	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/mitigation"
	"uavres/internal/physics"
	"uavres/internal/sensors"
	"uavres/internal/sim"
	"uavres/internal/store"
)

// Micro is one registered micro-benchmark.
type Micro struct {
	// Name is the metric stem, "<layer>.<kernel>".
	Name string
	// Unit scales the reported time per op: "ns", "us" or "ms".
	Unit string
	// Fn is the benchmark body.
	Fn func(b *testing.B)
}

// Result is one micro's measurement over several repetitions.
type Result struct {
	Name string
	Unit string
	// MinNs is the fastest repetition's ns/op: host steal only ever
	// inflates a repetition, so the minimum is the least-biased estimate.
	MinNs float64
	// Spread is (max-min)/min of ns/op across repetitions.
	Spread      float64
	AllocsPerOp int64
}

// PerOp returns the minimum time per op in the micro's own unit.
func (r Result) PerOp() float64 {
	switch r.Unit {
	case "us":
		return r.MinNs / 1e3
	case "ms":
		return r.MinNs / 1e6
	}
	return r.MinNs
}

var initOnce sync.Once

// Run measures m reps times with testing.Benchmark at the given
// benchtime per repetition.
func Run(m Micro, reps int, benchtime time.Duration) (Result, error) {
	initOnce.Do(testing.Init)
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return Result{}, fmt.Errorf("micro: %w", err)
	}
	res := Result{Name: m.Name, Unit: m.Unit, MinNs: math.Inf(1)}
	maxNs := 0.0
	for i := 0; i < reps; i++ {
		br := testing.Benchmark(m.Fn)
		if br.N == 0 {
			return Result{}, fmt.Errorf("micro: %s failed", m.Name)
		}
		ns := float64(br.T.Nanoseconds()) / float64(br.N)
		if ns < res.MinNs {
			res.MinNs = ns
			res.AllocsPerOp = br.AllocsPerOp()
		}
		maxNs = math.Max(maxNs, ns)
	}
	res.Spread = (maxNs - res.MinNs) / res.MinNs
	return res, nil
}

// All returns every registered micro in a fixed order.
func All() []Micro {
	return []Micro{
		{"physics.step", "ns", physicsStep(physics.QuadX)},
		{"physics.step_hexa", "ns", physicsStep(physics.HexaX)},
		{"physics.step_octo", "ns", physicsStep(physics.OctoX)},
		{"physics.allocate", "ns", mixerAllocate},
		{"sensors.imu_sample_vote", "ns", imuSampleVote},
		{"ekf.predict", "ns", ekfPredict(ekf.DefaultConfig().CovarianceDecimation)},
		{"ekf.predict_exact", "ns", ekfPredict(1)},
		{"ekf.fuse_gps", "ns", ekfFuseGPS},
		{"control.update", "ns", controlUpdate},
		{"bubble.observe", "ns", bubbleObserve},
		{"faultinject.apply", "ns", injectorApply},
		{"mitigation.apply", "ns", mitigationApply},
		{"mitigation.rotor_observe", "ns", rotorObserve},
		{"mathx.norm_polar", "ns", normPolar},
		{"sim.fork", "us", simFork},
		{"sim.ten_seconds", "ms", simTenSeconds},
		{"store.lookup", "us", storeLookup},
		{"store.put", "us", storePut},
		{"store.open", "ms", storeOpen},
	}
}

// hoverBody returns a body of the given layout hovering at 20 m.
func hoverBody(b *testing.B, layout physics.Airframe) *physics.Body {
	p := physics.DefaultParams()
	p.Layout = layout
	body, err := physics.NewBody(p, physics.CalmWind())
	if err != nil {
		b.Fatal(err)
	}
	var cmd physics.Rotors
	for i := 0; i < layout.Rotors(); i++ {
		cmd[i] = p.HoverThrustFraction()
	}
	body.SetMotorCommands(cmd)
	st := body.State()
	st.Pos.Z = -20
	body.SetState(st)
	return body
}

func physicsStep(layout physics.Airframe) func(b *testing.B) {
	return func(b *testing.B) {
		body := hoverBody(b, layout)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body.Step(0.002)
		}
	}
}

// mixerAllocate is the quad allocation control.update already contains.
func mixerAllocate(b *testing.B) {
	m := physics.NewMixer(physics.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Allocate(14.7, mathx.V3(0.1, -0.1, 0.01))
	}
}

func imuSampleVote(b *testing.B) {
	imus, err := sensors.NewRedundantIMUs(3, sensors.DefaultIMUSpec(), mathx.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]sensors.IMUSample, 0, 3)
	accel := mathx.V3(0, 0, -physics.Gravity)
	gyro := mathx.V3(0.01, -0.02, 0.005)
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := imus.SampleAllInto(buf, float64(i)*0.004, accel, gyro)
		_ = sensors.VoteOutlier(all, imus.Primary(), cfg.VoteAccelTol, cfg.VoteGyroTol)
	}
}

// ekfPredict measures one prediction at covariance decimation k (1 is
// the exact per-step path faulted flights take through a fault window).
func ekfPredict(k int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := ekf.DefaultConfig()
		cfg.CovarianceDecimation = k
		f := ekf.New(cfg)
		s := sensors.IMUSample{Accel: mathx.V3(0, 0, -physics.Gravity)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.T = float64(i) * 0.004
			f.Predict(s, 0.004)
		}
	}
}

func ekfFuseGPS(b *testing.B) {
	f := ekf.New(ekf.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FuseGPS(sensors.GPSSample{T: float64(i) * 0.2, Valid: true})
	}
}

func controlUpdate(b *testing.B) {
	ctl := control.New(control.DefaultGains(), physics.DefaultParams(), 0.004)
	est := control.Estimate{Att: mathx.QuatIdentity(), Vel: mathx.V3(1, 0, 0), Pos: mathx.V3(0, 0, -20)}
	sp := control.Setpoint{Pos: mathx.V3(50, 10, -25), Yaw: 0.3, CruiseSpeed: 8, MaxClimb: 3, MaxDescend: 2}
	gyro := mathx.V3(0.01, -0.02, 0.005)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ctl.Update(0.004, est, gyro, sp)
	}
}

func bubbleObserve(b *testing.B) {
	tr, err := bubble.NewTracker(mission.Valencia()[4], 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := mathx.V3(2100, 900, -15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(float64(i), p, 3.3)
	}
}

// injectorApply measures one corrupted sample inside the fault window.
func injectorApply(b *testing.B) {
	j, err := faultinject.New(faultinject.Injection{
		Primitive: faultinject.Random, Target: faultinject.TargetIMU,
		Start: 0, Duration: time.Hour, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := sensors.IMUSample{T: 1, Accel: mathx.V3(0, 0, -9.8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = j.Apply(s)
	}
}

func mitigationApply(b *testing.B) {
	p, err := mitigation.NewPipeline(mitigation.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s := sensors.IMUSample{Accel: mathx.V3(0.01, -0.02, -9.81), Gyro: mathx.V3(0.02, 0, 0.01)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Accel.X += 1e-9 // nominal streams are noisy: keep the stuck guard quiet
		_, _ = p.Apply(s)
	}
}

// rotorObserve measures one healthy FDI cycle on a hexa-x, the middle of
// the three layouts the redundancy matrix flies.
func rotorObserve(b *testing.B) {
	p := physics.DefaultParams()
	p.Layout = physics.HexaX
	n := p.Layout.Rotors()
	m := mitigation.NewRotorMonitor(mitigation.Config{}.RotorDefaults(), n, p.MotorTau, 0.004)
	var cmd physics.Rotors
	for i := 0; i < n; i++ {
		cmd[i] = p.HoverThrustFraction()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Observe(cmd, cmd)
	}
}

func normPolar(b *testing.B) {
	r := mathx.NewRandPolicy(1, mathx.NormPolar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// simFork measures forking one faulted case off a shared 30 s prefix.
func simFork(b *testing.B) {
	inj := &faultinject.Injection{
		Primitive: faultinject.Freeze, Target: faultinject.TargetGyro,
		Start: 30 * time.Second, Duration: 10 * time.Second, Seed: 1,
	}
	v, err := sim.NewVehicle(sim.DefaultConfig(), mission.Valencia()[0], inj, nil)
	if err != nil {
		b.Fatal(err)
	}
	v.RunUntil(inj.Start.Seconds())
	cp := v.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.ForkWithInjection(inj, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// simTenSeconds measures ten simulated vehicle-seconds of a gold flight.
func simTenSeconds(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.MaxSimTime = 10 // the mission cannot finish in 10 s: fixed work
	m := mission.Valencia()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, m, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// storedResult is a gold-run-sized result under a fingerprint derived
// from i.
func storedResult(i int) core.CaseResult {
	return core.CaseResult{
		Case: core.Case{ID: fmt.Sprintf("m01-gold-%d", i), MissionID: 1, Seed: 7, Hash: fmt.Sprintf("%016x", uint64(i)+1)},
		Result: sim.Result{
			MissionID: 1, Outcome: sim.OutcomeCompleted, FlightDurationSec: 473.25,
			DistanceKm: 2.5, WaypointsReached: 4,
			Diagnostics: &sim.Diagnostics{FirstInnerViolationSec: -1, FirstOuterViolationSec: -1, DistanceAtFirstOuterKm: -1},
		},
	}
}

// openStore opens a fresh store under the benchmark's temp directory
// holding n results.
func openStore(b *testing.B, n int) (*store.Store, string) {
	dir := filepath.Join(b.TempDir(), "store")
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Put(storedResult(i)); err != nil {
			b.Fatal(err)
		}
	}
	return st, dir
}

func storeLookup(b *testing.B) {
	st, _ := openStore(b, 64)
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Lookup(storedResult(i % 64).Case.Hash); !ok {
			b.Fatal("store miss")
		}
	}
}

func storePut(b *testing.B) {
	st, _ := openStore(b, 0)
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(storedResult(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// storeOpen measures reopening a store of 430 objects, the size of the
// grid-extend fixture.
func storeOpen(b *testing.B) {
	st, dir := openStore(b, 430)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
