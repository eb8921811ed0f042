// Command uavsim flies one Valencia mission, optionally under an IMU
// fault, and reports the paper's metrics for that flight. It can also
// write the flight as a black-box dump carrying the full trajectory — the
// data behind the paper's Figures 3-5, exported by cmd/replay — and as a
// paper-style trajectory figure.
//
// Usage:
//
//	uavsim -mission 10 -fault acc:fixed -dur 30s            # Fig. 3 setup
//	uavsim -mission 5 -fault gyro:random -dur 30s           # Fig. 4 setup
//	uavsim -mission 5 -fault imu:random -dur 30s            # Fig. 5 setup
//	uavsim -mission 4                                       # gold run
//	uavsim -mission 4 -blackbox flight.blackbox.json -svg flight.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"uavres/internal/blackbox"
	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/plot"
	"uavres/internal/sim"
	"uavres/internal/spec"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		missionID = flag.Int("mission", 1, "Valencia mission number (1-10)")
		faultSpec = flag.String("fault", "", "fault as target:primitive (e.g. gyro:freeze, acc:zeros, imu:random); empty = gold run")
		dur       = flag.Duration("dur", 10*time.Second, "injection duration (paper: 2s/5s/10s/30s)")
		start     = flag.Duration("start", 90*time.Second, "injection start after takeoff")
		seed      = flag.Int64("seed", 1, "simulation seed")
		bboxPath  = flag.String("blackbox", "", "write the flight as a black-box dump with its full trajectory to this path (read it with cmd/replay)")
		svgPath   = flag.String("svg", "", "write a paper-style trajectory figure (SVG) to this path")
	)
	flag.Parse()

	var m mission.Mission
	found := false
	for _, cand := range mission.Valencia() {
		if cand.ID == *missionID {
			m = cand
			found = true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "uavsim: unknown mission %d (valid: 1-10)\n", *missionID)
		return 1
	}

	var inj *faultinject.Injection
	if *faultSpec != "" {
		parts := strings.SplitN(*faultSpec, ":", 2)
		if len(parts) != 2 {
			fmt.Fprintf(os.Stderr, "uavsim: fault must be target:primitive, got %q\n", *faultSpec)
			return 1
		}
		target, err := faultinject.ParseTarget(parts[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "uavsim:", err)
			return 1
		}
		prim, err := faultinject.ParsePrimitive(parts[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "uavsim:", err)
			return 1
		}
		inj = &faultinject.Injection{
			Primitive: prim, Target: target,
			Start: *start, Duration: *dur, Seed: *seed + 1,
		}
	}

	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	cfg.RecordTrajectory = *bboxPath != "" || *svgPath != ""

	label := "Gold Run"
	if inj != nil {
		label = inj.Label()
	}
	fmt.Printf("mission %d (%s), drone %s @ %.1f km/h, fault: %s\n",
		m.ID, m.Name, m.Drone.Name, m.CruiseSpeedMS*3.6, label)

	res, err := sim.Run(cfg, m, inj, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uavsim:", err)
		return 1
	}

	fmt.Printf("outcome:            %s", res.Outcome)
	switch {
	case res.CrashReason != "":
		fmt.Printf(" (%s)", res.CrashReason)
	case res.FailsafeCause != "":
		fmt.Printf(" (%s)", res.FailsafeCause)
	}
	fmt.Println()
	fmt.Printf("flight duration:    %.2f s\n", res.FlightDurationSec)
	fmt.Printf("distance traveled:  %.3f km (EKF-estimated)\n", res.DistanceKm)
	fmt.Printf("bubble violations:  inner=%d outer=%d\n", res.InnerViolations, res.OuterViolations)
	fmt.Printf("waypoints reached:  %d/%d\n", res.WaypointsReached, len(m.Waypoints))

	if *bboxPath != "" {
		// The campaign's case ID, so one flight has one name whichever
		// tool flew it.
		id := fmt.Sprintf("m%02d-gold", m.ID)
		if inj != nil {
			id = spec.CaseID(m.ID, inj.Target, inj.Primitive, inj.Duration, inj.Start)
		}
		c := core.CaseResult{
			Case:   core.Case{ID: id, MissionID: m.ID, Injection: inj, Seed: *seed},
			Result: res,
		}
		if err := blackbox.WriteFile(*bboxPath, blackbox.FromCase(c, "")); err != nil {
			fmt.Fprintln(os.Stderr, "uavsim:", err)
			return 1
		}
		fmt.Printf("black box:          %s (%d trajectory points)\n", *bboxPath, len(res.Trajectory))
	}
	if *svgPath != "" {
		faultStart := 0.0
		if inj != nil {
			faultStart = inj.Start.Seconds()
		}
		f, err := os.Create(*svgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uavsim:", err)
			return 1
		}
		err = plot.TrajectoryFigure(f, m, res, faultStart)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "uavsim:", err)
			return 1
		}
		fmt.Printf("trajectory figure:  %s\n", *svgPath)
	}
	return 0
}
