// Command figures regenerates every figure of the paper's evaluation as
// SVG files:
//
//   - fig2_bubble.svg — the two-layer bubble concept as a time series
//     (deviation vs. inner/outer radii) for a faulty flight,
//   - fig3_acc_fixed.svg — Acc Fixed Value, 30 s, fastest drone (paper:
//     off-trajectory then crash),
//   - fig4_gyro_random.svg — Gyro Random, 30 s, before a turning point
//     (paper: cannot stabilize for the turn, failsafe),
//   - fig5_imu_random.svg — IMU Random, 30 s (paper: fast violent loss),
//
// plus altitude companions for figures 3-5. Each figure prints one line:
// the measured outcome, the outcome the paper reports, and whether the
// two agree ("holds") or not ("DIVERGES"). The output is deterministic;
// testdata/figures.txt holds it, regenerated with
//
//	go run ./cmd/figures -outdir figures > cmd/figures/testdata/figures.txt
//
// Usage:
//
//	figures [-outdir figures/]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/plot"
	"uavres/internal/sim"
)

func main() {
	outdir := flag.String("outdir", "figures", "output directory for SVGs")
	flag.Parse()
	if err := render(*outdir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

type figureSpec struct {
	name      string
	missionIx int
	inj       faultinject.Injection
	// paper is the outcome the paper reports for the figure; holds says
	// whether a measured run shows it.
	paper string
	holds func(sim.Result) bool
}

// render flies every figure's scenario, writes its SVGs into outdir and
// prints one line per figure to w.
func render(outdir string, w io.Writer) error {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	specs := []figureSpec{
		{
			name: "fig3_acc_fixed", missionIx: 9,
			inj: faultinject.Injection{
				Primitive: faultinject.FixedValue, Target: faultinject.TargetAccel,
				Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 2,
			},
			paper: "crash",
			holds: func(res sim.Result) bool { return res.Outcome == sim.OutcomeCrash },
		},
		{
			name: "fig4_gyro_random", missionIx: 4,
			inj: faultinject.Injection{
				Primitive: faultinject.Random, Target: faultinject.TargetGyro,
				Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 4,
			},
			paper: "failsafe",
			holds: func(res sim.Result) bool { return res.Outcome == sim.OutcomeFailsafe },
		},
		{
			// The paper's vehicle hit the ground; here the failure
			// detector usually wins that race. Both are a quick, violent
			// loss of the vehicle, which is the shape checked.
			name: "fig5_imu_random", missionIx: 4,
			inj: faultinject.Injection{
				Primitive: faultinject.Random, Target: faultinject.TargetIMU,
				Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 5,
			},
			paper: "lost within 120 s",
			holds: func(res sim.Result) bool { return !res.Outcome.Completed() && res.FlightDurationSec <= 120 },
		},
	}
	missions := mission.Valencia()
	cfg := figureConfig()

	for _, spec := range specs {
		m := missions[spec.missionIx]
		res, err := sim.Run(cfg, m, &spec.inj, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %s on mission %d -> %v (%s%s) at %.1f s, %.1f s after onset; paper: %s %s\n",
			spec.name, spec.inj.Label(), m.ID, res.Outcome,
			res.FailsafeCause, res.CrashReason, res.FlightDurationSec,
			res.FlightDurationSec-spec.inj.Start.Seconds(), spec.paper, verdict(spec.holds(res)))

		start, end := spec.inj.Start.Seconds(), (spec.inj.Start + spec.inj.Duration).Seconds()
		if err := writeFigure(filepath.Join(outdir, spec.name+".svg"), func(f *os.File) error {
			return plot.TrajectoryFigure(f, m, res, start)
		}); err != nil {
			return err
		}
		if err := writeFigure(filepath.Join(outdir, spec.name+"_alt.svg"), func(f *os.File) error {
			return plot.AltitudeFigure(f, res, start, end)
		}); err != nil {
			return err
		}
	}

	// Figure 2: bubble layers over time, from the 1 Hz observations.
	var times, devs, inner, outer []float64
	m, res, err := flyFig2(func(tel sim.Telemetry) {
		times = append(times, tel.T)
		devs = append(devs, tel.Bubble.Deviation)
		inner = append(inner, tel.Bubble.InnerRadius)
		outer = append(outer, tel.Bubble.OuterRadius)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s on mission %d -> %v, %d/%d violations; paper: %s %s\n",
		fig2.name, fig2.inj.Label(), m.ID, res.Outcome, res.InnerViolations, res.OuterViolations,
		fig2.paper, verdict(fig2.holds(res)))
	return writeFigure(filepath.Join(outdir, fig2.name+".svg"), func(f *os.File) error {
		return plot.BubbleFigure(f, times, devs, inner, outer)
	})
}

// figureConfig is the configuration every figure flies under.
func figureConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = 42
	cfg.RecordTrajectory = true
	return cfg
}

// fig2 is Figure 2's case: an accelerometer fault that drives the
// vehicle through both bubble layers.
var fig2 = figureSpec{
	name: "fig2_bubble", missionIx: 4,
	inj: faultinject.Injection{
		Primitive: faultinject.Zeros, Target: faultinject.TargetAccel,
		Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 6,
	},
	paper: "both layers crossed",
	holds: func(res sim.Result) bool { return res.InnerViolations > 0 && res.OuterViolations > 0 },
}

// flyFig2 flies Figure 2's case, handing every 1 Hz observation to obs.
func flyFig2(obs sim.Observer) (mission.Mission, sim.Result, error) {
	m := mission.Valencia()[fig2.missionIx]
	inj := fig2.inj
	res, err := sim.Run(figureConfig(), m, &inj, obs)
	return m, res, err
}

func verdict(holds bool) string {
	if holds {
		return "holds"
	}
	return "DIVERGES"
}

func writeFigure(path string, draw func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = draw(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("rendering %s: %w", path, err)
	}
	return nil
}
