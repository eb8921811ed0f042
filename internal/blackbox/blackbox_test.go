package blackbox

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/sim"
)

func crashResult() core.CaseResult {
	return core.CaseResult{
		Case: core.Case{
			ID: "m01-zeros-accel-s1", MissionID: 1, Seed: 42,
			Injection: &faultinject.Injection{
				Primitive: faultinject.Zeros, Target: faultinject.TargetAccel,
				Start: 90 * time.Second, Duration: 5 * time.Second,
			},
		},
		Result: sim.Result{
			MissionID: 1, Outcome: sim.OutcomeCrash, CrashReason: "ground impact",
			FlightDurationSec: 97.5, DistanceKm: 0.31, OuterViolations: 3,
			Diagnostics: &sim.Diagnostics{
				FirstOuterViolationSec: 93, GPSFusions: 480, GPSGateRejects: 12,
				TrajectoryTail: []sim.TrajPoint{
					{T: 95, TruePos: mathx.V3(1, 2, -15), EstPos: mathx.V3(1, 2, -14), TiltDeg: 12},
					{T: 96, TruePos: mathx.V3(1, 3, -9), EstPos: mathx.V3(5, 3, -13), TiltDeg: 48},
				},
			},
		},
	}
}

func TestShouldDump(t *testing.T) {
	crash := crashResult()
	if !ShouldDump(crash) {
		t.Error("crash case not dumped")
	}
	violated := core.CaseResult{Result: sim.Result{Outcome: sim.OutcomeCompleted, OuterViolations: 1}}
	if !ShouldDump(violated) {
		t.Error("outer-violation case not dumped")
	}
	clean := core.CaseResult{Result: sim.Result{Outcome: sim.OutcomeCompleted}}
	if ShouldDump(clean) {
		t.Error("clean completion dumped")
	}
	infra := core.CaseResult{Err: "unknown mission", Result: sim.Result{Outcome: sim.OutcomeCrash}}
	if ShouldDump(infra) {
		t.Error("infra error dumped")
	}
}

// trajectoryResult is a gold flight recorded with RecordTrajectory, as
// cmd/uavsim writes it: no tail, the whole path in Result.Trajectory.
func trajectoryResult() core.CaseResult {
	return core.CaseResult{
		Case: core.Case{ID: "m04-gold", MissionID: 4, Seed: 1},
		Result: sim.Result{
			MissionID: 4, Outcome: sim.OutcomeCompleted, FlightDurationSec: 2.5,
			Trajectory: []sim.TrajPoint{
				{T: 0, TruePos: mathx.V3(0.1, -0.2, 0), EstPos: mathx.V3(0.1000000000000001, -0.2, -1e-17)},
				{T: 1, TruePos: mathx.V3(0.3, -0.2, -4.25), EstPos: mathx.V3(0.3, -0.2, -4.5), TiltDeg: 6.727539424182159},
				{T: 2, TruePos: mathx.V3(1, 0, -12), EstPos: mathx.V3(1, 0, -12), TiltDeg: 0.5},
			},
			Diagnostics: &sim.Diagnostics{FirstInnerViolationSec: -1, FirstOuterViolationSec: -1},
		},
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "blackbox")
	res := crashResult()
	d := FromCase(res, "deadbeef")
	path, err := Write(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "m01-zeros-accel-s1.blackbox.json" {
		t.Errorf("unexpected filename %s", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, d)
	}
	if got.Outcome != "crash" || got.SpecHash != "deadbeef" || got.Seed != 42 {
		t.Errorf("fields lost: %+v", got)
	}
	if len(got.Diagnostics.TrajectoryTail) != 2 {
		t.Errorf("tail lost: %+v", got.Diagnostics)
	}
	if got.Trajectory != nil {
		t.Errorf("campaign dump gained a trajectory: %+v", got.Trajectory)
	}
}

// TestWriteLoadTrajectoryRoundTrip writes a flight recorded with its whole
// trajectory, as cmd/uavsim -blackbox does, and reads every point back
// bit for bit.
func TestWriteLoadTrajectoryRoundTrip(t *testing.T) {
	res := trajectoryResult()
	d := FromCase(res, "deadbeef")
	path, err := Write(t.TempDir(), d)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "m04-gold.blackbox.json" {
		t.Errorf("unexpected filename %s", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, d)
	}
	if !reflect.DeepEqual(got.Trajectory, res.Result.Trajectory) {
		t.Errorf("trajectory changed:\ngot  %+v\nwant %+v", got.Trajectory, res.Result.Trajectory)
	}
	if got.Outcome != "completed" || got.MissionID != 4 || got.Seed != 1 {
		t.Errorf("fields lost: %+v", got)
	}
	if len(got.Diagnostics.TrajectoryTail) != 0 {
		t.Errorf("trajectory flight gained a tail: %+v", got.Diagnostics.TrajectoryTail)
	}
}

func TestFilenameScrubsSeparators(t *testing.T) {
	d := Dump{CaseID: "../evil/case:1"}
	name := d.Filename()
	if filepath.Base(name) != name {
		t.Errorf("filename %q escapes its directory", name)
	}
	if name != ".._evil_case_1.blackbox.json" {
		t.Errorf("scrubbed name = %q", name)
	}
}

func TestLoadRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"garbage.json":    "{not json",
		"no-case.json":    `{"version":1,"outcome":"crash"}`,
		"no-outcome.json": `{"version":1,"case_id":"x"}`,
		"future.json":     `{"version":99,"case_id":"x","outcome":"crash"}`,
		"zero-ver.json":   `{"case_id":"x","outcome":"crash"}`,
	}
	for name, content := range cases {
		if _, err := Load(write(name, content)); err == nil {
			t.Errorf("%s loaded without error", name)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestLoadDetectsTruncation cuts a written trajectory dump short at every
// byte before its closing brace: Load rejects each cut instead of
// returning a dump with points missing.
func TestLoadDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path, err := Write(dir, FromCase(trajectoryResult(), "deadbeef"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := bytes.LastIndexByte(raw, '}')
	if end < 0 {
		t.Fatalf("dump has no closing brace: %q", raw)
	}
	cut := filepath.Join(dir, "cut.blackbox.json")
	for n := 0; n < end; n++ {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(cut); err == nil {
			t.Fatalf("dump cut to %d of %d bytes loaded without error", n, len(raw))
		}
	}
}

// FuzzLoadBlackbox feeds arbitrary bytes to Load, the one flight-record
// decoder (seed corpus under testdata/fuzz/FuzzLoadBlackbox). Load never
// panics, and a dump it accepts survives Write → Load unchanged.
func FuzzLoadBlackbox(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.blackbox.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Load(in)
		if err != nil {
			return
		}
		// WriteFile, not Write: a case ID that is no valid file name
		// fails Write by design, which says nothing about the decoder.
		out := filepath.Join(dir, "out.blackbox.json")
		if err := WriteFile(out, d); err != nil {
			t.Fatal(err)
		}
		got, err := Load(out)
		if err != nil {
			t.Fatalf("a written dump does not load: %v", err)
		}
		// Write omits empty lists and maps, so a literal [] or {} in the
		// input loads back as nil; that is the one permitted difference.
		if len(d.Trajectory) == 0 {
			d.Trajectory = nil
		}
		if diag := d.Diagnostics; diag != nil {
			if len(diag.Trace) == 0 {
				diag.Trace = nil
			}
			if len(diag.TraceSummary) == 0 {
				diag.TraceSummary = nil
			}
			if len(diag.TrajectoryTail) == 0 {
				diag.TrajectoryTail = nil
			}
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("round trip changed the dump:\ngot  %+v\nwant %+v", got, d)
		}
	})
}
