package uavres

// The benchmark harness runs the design-choice ablations the paper calls
// out and the micros outside the sim tick, logging their rows and
// exposing the headline quantities as benchmark metrics.
//
//	go test -bench=Ablation -benchtime=1x  # design-choice ablations
//	go test -bench=Micro                   # micros outside the sim tick
//
// The paper's tables and figures are not benchmarks: cmd/report and
// cmd/figures render them, and tier-1 tests compare both with committed
// output (RESULTS.md, cmd/figures/testdata/figures.txt).
//
// The per-layer micros of the sim tick (physics, sensing, EKF, control,
// bubble, fault injection, mitigation, RNG, ten-second flight) live in
// benchsuite/micro, the one registry the campaign benchmark prices its
// call counts with; `bash benchsuite/run.sh --trace 1` prints them. Their
// allocs/op are pinned by AllocsPerRun tests in each package: zero per
// kernel, a ceiling for the ten-second flight.

import (
	"fmt"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/lint"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/mitigation"
	"uavres/internal/obs"
	"uavres/internal/sim"
)

// BenchmarkAblationRateSource is the factorial fault-path ablation: where
// does gyro-fault damage enter — the raw-gyro rate loop, the EKF, or
// both? (DESIGN.md ablation #1.)
func BenchmarkAblationRateSource(b *testing.B) {
	m := mission.Valencia()[4]
	inj := &faultinject.Injection{
		Primitive: faultinject.Zeros, Target: faultinject.TargetGyro,
		Start: 90 * time.Second, Duration: 10 * time.Second, Seed: 1,
	}
	arms := []struct {
		name                  string
		shieldRate, shieldEKF bool
	}{
		{"exposed", false, false},
		{"shield-rate-loop", true, false},
		{"shield-ekf", false, true},
		{"shield-both", true, true},
	}
	for i := 0; i < b.N; i++ {
		for _, arm := range arms {
			cfg := sim.DefaultConfig()
			cfg.ShieldRateLoop = arm.shieldRate
			cfg.ShieldEKF = arm.shieldEKF
			res, err := sim.Run(cfg, m, inj, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.Logf("%-18s -> %v (%.1f s)", arm.name, res.Outcome, res.FlightDurationSec)
				completed := 0.0
				if res.Outcome.Completed() {
					completed = 1
				}
				b.ReportMetric(completed, arm.name+"_completed")
			}
		}
	}
}

// BenchmarkAblationIsolationDelay varies the redundant-sensor isolation
// stage (the paper: failsafe takes >= 1900 ms because isolation runs
// first) and reports the time from fault onset to failsafe.
// (DESIGN.md ablation #3.)
func BenchmarkAblationIsolationDelay(b *testing.B) {
	m := mission.Valencia()[4]
	inj := &faultinject.Injection{
		Primitive: faultinject.MinValue, Target: faultinject.TargetGyro,
		Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		for _, delay := range []float64{0, 1.9, 5.0} {
			cfg := sim.DefaultConfig()
			cfg.Failsafe.IsolationDelaySec = delay
			res, err := sim.Run(cfg, m, inj, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				latency := res.FlightDurationSec - 90
				b.Logf("isolation %.1fs -> %v, %.2f s after onset", delay, res.Outcome, latency)
				b.ReportMetric(latency, fmt.Sprintf("iso%.1fs_latency_s", delay))
			}
		}
	}
}

// BenchmarkAblationInnovationGate toggles the EKF innovation gate to show
// why "Zeros were better handled than Min and Max": without gating, a
// full-scale accelerometer fault feeds straight into the state.
// (DESIGN.md ablation #4.)
func BenchmarkAblationInnovationGate(b *testing.B) {
	m := mission.Valencia()[4]
	inj := &faultinject.Injection{
		Primitive: faultinject.Zeros, Target: faultinject.TargetAccel,
		Start: 90 * time.Second, Duration: 10 * time.Second, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		for _, gate := range []float64{0, 5} {
			cfg := sim.DefaultConfig()
			cfg.EKF.GateSigma = gate
			res, err := sim.Run(cfg, m, inj, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				name := "gate-off"
				if gate > 0 {
					name = "gate-5sigma"
				}
				b.Logf("%s -> %v, %d inner violations, %.1f s", name, res.Outcome, res.InnerViolations, res.FlightDurationSec)
				b.ReportMetric(float64(res.InnerViolations), name+"_inner")
			}
		}
	}
}

// BenchmarkAblationRedundancy challenges the paper's all-units fault
// assumption (DESIGN.md ablation notes): the same gyro faults strike all
// three IMUs (the paper's setup) vs. only one, with cross-unit
// consistency voting active. Metrics: 1 = completed, 0 = lost.
func BenchmarkAblationRedundancy(b *testing.B) {
	m := mission.Valencia()[4]
	prims := []faultinject.Primitive{faultinject.MinValue, faultinject.Zeros, faultinject.Freeze, faultinject.Random}
	for i := 0; i < b.N; i++ {
		for _, p := range prims {
			for _, scope := range []faultinject.Scope{faultinject.ScopeAllUnits, faultinject.ScopePrimaryUnit} {
				inj := &faultinject.Injection{
					Primitive: p, Target: faultinject.TargetGyro,
					Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 3,
					Scope: scope,
				}
				res, err := sim.Run(sim.DefaultConfig(), m, inj, nil)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.Logf("gyro %-12v %-13v -> %v (%.1f s)", p, scope, res.Outcome, res.FlightDurationSec)
					v := 0.0
					if res.Outcome.Completed() {
						v = 1
					}
					b.ReportMetric(v, fmt.Sprintf("%v_%v", p, scope))
				}
			}
		}
	}
}

// BenchmarkMitigation evaluates the software mitigation stack (the
// paper's proposed future work, DESIGN.md section 8): representative
// faults with the pipeline off vs. on. Metrics report 1 for completed,
// 0.5 for controlled failsafe, 0 for crash — higher is safer.
func BenchmarkMitigation(b *testing.B) {
	m := mission.Valencia()[4]
	faults := []struct {
		name string
		p    faultinject.Primitive
		tg   faultinject.Target
	}{
		{"gyro-noise", faultinject.Noise, faultinject.TargetGyro},
		{"gyro-freeze", faultinject.Freeze, faultinject.TargetGyro},
		{"gyro-min", faultinject.MinValue, faultinject.TargetGyro},
		{"acc-min", faultinject.MinValue, faultinject.TargetAccel},
		{"imu-freeze", faultinject.Freeze, faultinject.TargetIMU},
	}
	score := func(o sim.Outcome) float64 {
		switch o {
		case sim.OutcomeCompleted:
			return 1
		case sim.OutcomeFailsafe:
			return 0.5
		default:
			return 0
		}
	}
	for i := 0; i < b.N; i++ {
		for _, f := range faults {
			inj := &faultinject.Injection{
				Primitive: f.p, Target: f.tg,
				Start: 90 * time.Second, Duration: 10 * time.Second, Seed: 3,
			}
			for _, on := range []bool{false, true} {
				cfg := sim.DefaultConfig()
				if on {
					cfg.Mitigation = mitigation.DefaultConfig()
				}
				res, err := sim.Run(cfg, m, inj, nil)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					label := f.name + "_baseline"
					if on {
						label = f.name + "_mitigated"
					}
					b.Logf("%-24s -> %v (%s%s)", label, res.Outcome, res.FailsafeCause, res.CrashReason)
					b.ReportMetric(score(res.Outcome), label)
				}
			}
		}
	}
}

// BenchmarkUavlint lints the repository's own internal/ tree with the
// full analyzer suite, so the static-analysis gate's cost shows up in
// the perf trajectory alongside the simulation hot paths. The runner is
// reused across iterations: the first pays the standard-library
// type-check, the steady state is what CI re-runs feel like.
func BenchmarkUavlint(b *testing.B) {
	runner, err := lint.NewRunner(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		findings, err := runner.Run("./internal/...")
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("repository is not lint-clean: %v", findings)
		}
	}
}

// --- Micro-benchmarks outside the sim tick (RNG policy, obs) ---

// BenchmarkMicroNormFloat64Ziggurat measures one normal deviate under the
// 128-layer ziggurat sampler (inside-rectangle fast path ~98% of draws).
func BenchmarkMicroNormFloat64Ziggurat(b *testing.B) {
	r := mathx.NewRandPolicy(1, mathx.NormZiggurat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// BenchmarkMicroObsCounterInc measures one resolved-counter increment,
// the per-update cost of the campaign runner's and daemon's registry
// instruments (the flight-data recorder keeps plain counters and touches
// no registry). Must stay 0 allocs/op.
func BenchmarkMicroObsCounterInc(b *testing.B) {
	c := obs.NewRegistry().Counter("steps")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkMicroObsHistogramObserve measures one histogram observation
// (bucket scan + two atomic adds + CAS sum). Must stay 0 allocs/op.
func BenchmarkMicroObsHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram("lat", []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%37) * 0.1)
	}
}

// BenchmarkMicroObsSpanStartEnd measures one campaign span open/close
// pair — the per-case tracing cost every worker pays when -trace-out is
// set. Must stay 0 allocs/op once the span slice has capacity.
func BenchmarkMicroObsSpanStartEnd(b *testing.B) {
	tr := obs.NewTracer(obs.Stopped(), 1<<16)
	root := tr.Start("campaign", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.Start("case", root, obs.StrAttr("id", "m01-gold"))
		tr.End(id)
		if tr.Len() >= 1<<16 {
			tr.Reset()
			root = tr.Start("campaign", 0)
		}
	}
}
