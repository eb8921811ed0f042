// Command replay loads a black-box dump — written by cmd/campaign for its
// crash/violation cases, or by cmd/uavsim for one flight with its full
// trajectory — prints the failure story, and optionally exports the
// trajectory as CSV or an SVG figure: offline analysis of recorded
// flights, the role the paper's platform's log review plays.
//
// Usage:
//
//	replay -blackbox out/blackbox/m01-acc-zeros-5s.blackbox.json
//	replay -blackbox flight.blackbox.json -csv flight.csv -svg flight.svg
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"uavres/internal/blackbox"
	"uavres/internal/plot"
	"uavres/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		bboxPath = flag.String("blackbox", "", "black-box dump path (from campaign -blackbox-dir or uavsim -blackbox)")
		csvPath  = flag.String("csv", "", "export the trajectory as CSV")
		svgPath  = flag.String("svg", "", "export an altitude/estimation-error figure as SVG")
	)
	flag.Parse()
	if *bboxPath == "" {
		fmt.Fprintln(os.Stderr, "replay: -blackbox is required")
		flag.Usage()
		return 1
	}
	d, err := blackbox.Load(*bboxPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		return 1
	}
	printDump(d)

	points := exportPoints(d)
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(w io.Writer) error { return writeCSV(w, points) }); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			return 1
		}
		fmt.Printf("csv written to %s (%d points)\n", *csvPath, len(points))
	}
	if *svgPath != "" && len(points) > 0 {
		times := make([]float64, len(points))
		alts := make([]float64, len(points))
		errs := make([]float64, len(points))
		for i, p := range points {
			times[i] = p.T
			alts[i] = -p.TruePos.Z
			errs[i] = p.TruePos.Dist(p.EstPos)
		}
		chart := plot.Chart{
			Title:  fmt.Sprintf("black box — %s (%s)", d.CaseID, d.Outcome),
			XLabel: "time (s)",
			YLabel: "meters",
			Series: []plot.Series{
				{Name: "altitude (m)", X: times, Y: alts},
				{Name: "estimation error (m)", X: times, Y: errs},
			},
		}
		if err := writeFile(*svgPath, chart.WriteSVG); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			return 1
		}
		fmt.Printf("figure written to %s\n", *svgPath)
	}
	return 0
}

// printDump prints the failure story: case identity, outcome, EKF aiding
// statistics, the event timeline, and the trajectory tail.
func printDump(d blackbox.Dump) {
	fmt.Printf("black box: case %s (mission %d, seed %d)\n", d.CaseID, d.MissionID, d.Seed)
	if d.SpecHash != "" {
		fmt.Printf("  spec:             %s\n", d.SpecHash)
	}
	if d.Injection != nil {
		fmt.Printf("  injection:        %s at t=%s for %s\n",
			d.Injection.Label(), d.Injection.Start, d.Injection.Duration)
	}
	// The outcome line reads as cmd/uavsim prints it: the crash reason or
	// failsafe cause in parentheses.
	outcome := d.Outcome
	switch {
	case d.CrashReason != "":
		outcome += " (" + d.CrashReason + ")"
	case d.FailsafeCause != "":
		outcome += " (" + d.FailsafeCause + ")"
	}
	fmt.Printf("  outcome:          %s\n", outcome)
	fmt.Printf("  flight duration:  %.1f s\n", d.FlightDurationSec)
	fmt.Printf("  distance:         %.3f km\n", d.DistanceKm)
	fmt.Printf("  violations:       inner=%d outer=%d\n", d.InnerViolations, d.OuterViolations)
	fmt.Printf("  waypoints:        %d\n", d.WaypointsReached)

	diag := d.Diagnostics
	if diag == nil {
		fmt.Println("  (no diagnostics block)")
		return
	}
	fmt.Printf("  ekf:              gps %d fused / %d rejected (max ratio %.2f), baro %d fused / %d rejected (max ratio %.2f), %d resets\n",
		diag.GPSFusions, diag.GPSGateRejects, diag.MaxGPSRatio,
		diag.BaroFusions, diag.BaroGateRejects, diag.MaxBaroRatio, diag.EKFResets)
	fmt.Printf("  redundancy:       %d sensor switches, %d mitigation engagements\n",
		diag.SensorSwitches, diag.MitigationEngagements)
	if diag.TraceDropped > 0 {
		fmt.Printf("  trace:            %d events retained, %d dropped from ring\n",
			len(diag.Trace), diag.TraceDropped)
	}
	for _, e := range diag.Trace {
		line := fmt.Sprintf("  t=%8.2f  %s", e.T, e.Kind)
		if e.Detail != "" {
			line += " " + e.Detail
		}
		if e.Value > 0 {
			line += fmt.Sprintf(" (%.2f)", e.Value)
		}
		fmt.Println(line)
	}
	tail := diag.TrajectoryTail
	fmt.Printf("  trajectory tail:  %d points\n", len(tail))
	for _, p := range tail {
		fmt.Printf("  t=%8.2f  true=(%.1f, %.1f, %.1f)  est=(%.1f, %.1f, %.1f)  tilt=%.1f deg\n",
			p.T, p.TruePos.X, p.TruePos.Y, p.TruePos.Z,
			p.EstPos.X, p.EstPos.Y, p.EstPos.Z, p.TiltDeg)
	}
}

// exportPoints is what -csv and -svg export: the full trajectory when the
// dump has one, otherwise the black-box tail.
func exportPoints(d blackbox.Dump) []sim.TrajPoint {
	if len(d.Trajectory) > 0 || d.Diagnostics == nil {
		return d.Trajectory
	}
	return d.Diagnostics.TrajectoryTail
}

// csvHeader names the sim.TrajPoint fields in export order.
const csvHeader = "t,true_x,true_y,true_z,est_x,est_y,est_z,tilt_deg\n"

// writeCSV exports trajectory points one per row. Floats use the shortest
// formatting that parses back to the same float64, so the CSV is exact.
func writeCSV(w io.Writer, points []sim.TrajPoint) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(csvHeader)
	var buf []byte
	for _, p := range points {
		buf = buf[:0]
		for i, v := range [...]float64{p.T, p.TruePos.X, p.TruePos.Y, p.TruePos.Z, p.EstPos.X, p.EstPos.Y, p.EstPos.Z, p.TiltDeg} {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	return bw.Flush()
}

// writeFile creates path, lets write fill it, and reports the first of
// the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
