package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"uavres/internal/blackbox"
	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/sim"
)

// TestCSVMatchesTrajectory flies one real case with trajectory recording
// (mission 1, accelerometer zeros for 30 s), passes it through the dump
// file, and exports the CSV: every row parses back bit for bit to its
// trajectory point.
func TestCSVMatchesTrajectory(t *testing.T) {
	m := mission.Valencia()[0]
	inj := &faultinject.Injection{
		Primitive: faultinject.Zeros, Target: faultinject.TargetAccel,
		Start: 90 * time.Second, Duration: 30 * time.Second, Seed: 2,
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = 1
	cfg.RecordTrajectory = true
	res, err := sim.Run(cfg, m, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := core.CaseResult{Case: core.Case{ID: "m01-acc-zeros-30s", MissionID: m.ID, Injection: inj, Seed: 1}, Result: res}
	path, err := blackbox.Write(t.TempDir(), blackbox.FromCase(c, ""))
	if err != nil {
		t.Fatal(err)
	}
	d, err := blackbox.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, exportPoints(d)); err != nil {
		t.Fatal(err)
	}

	rows := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")[1:]
	if len(rows) != len(res.Trajectory) || len(rows) < 2 {
		t.Fatalf("%d CSV rows for %d trajectory points", len(rows), len(res.Trajectory))
	}
	for i, row := range rows {
		p := res.Trajectory[i]
		want := []float64{p.T, p.TruePos.X, p.TruePos.Y, p.TruePos.Z, p.EstPos.X, p.EstPos.Y, p.EstPos.Z, p.TiltDeg}
		fields := strings.Split(row, ",")
		if len(fields) != len(want) {
			t.Fatalf("row %d has %d fields, want %d: %q", i, len(fields), len(want), row)
		}
		for j, f := range fields {
			got, err := strconv.ParseFloat(f, 64)
			if err != nil || math.Float64bits(got) != math.Float64bits(want[j]) {
				t.Fatalf("row %d field %d: %q does not parse back to %v (err %v)", i, j, f, want[j], err)
			}
		}
	}
}

// TestWriteCSVColumns pins the header and the shortest round-trip float
// formatting.
func TestWriteCSVColumns(t *testing.T) {
	var buf bytes.Buffer
	points := []sim.TrajPoint{{T: 0.1, TruePos: mathx.V3(1e-7, -2, 0), EstPos: mathx.V3(1.5, 1e21, -3), TiltDeg: 12}}
	if err := writeCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	want := "t,true_x,true_y,true_z,est_x,est_y,est_z,tilt_deg\n0.1,1e-07,-2,0,1.5,1e+21,-3,12\n"
	if buf.String() != want {
		t.Errorf("csv:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestExportPoints: -csv and -svg export the full trajectory when the dump
// has one, the black-box tail otherwise, and a dump with neither exports
// a header-only CSV.
func TestExportPoints(t *testing.T) {
	diag := &sim.Diagnostics{TrajectoryTail: []sim.TrajPoint{{T: 2}}}
	if got := exportPoints(blackbox.Dump{Trajectory: []sim.TrajPoint{{T: 0}, {T: 1}, {T: 2}}, Diagnostics: diag}); len(got) != 3 {
		t.Errorf("dump with a trajectory exports %v, want the trajectory", got)
	}
	if got := exportPoints(blackbox.Dump{Diagnostics: diag}); len(got) != 1 {
		t.Errorf("dump without a trajectory exports %v, want the tail", got)
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, exportPoints(blackbox.Dump{})); err != nil || buf.String() != csvHeader {
		t.Errorf("empty dump exports %q (err %v), want the header alone", buf.String(), err)
	}
}
