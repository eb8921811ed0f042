package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/sim"
)

func TestResultsWriterRoundTrip(t *testing.T) {
	in := []CaseResult{
		mkResult(1, inj(faultinject.Freeze, faultinject.TargetIMU, 5*time.Second), sim.OutcomeFailsafe, 3, 2, 99.5, 0.4),
		mkResult(2, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6),
		{Case: Case{ID: "broken", MissionID: 7}, Err: "boom"},
	}
	var buf bytes.Buffer
	w := NewResultsWriter(&buf)
	for _, r := range in {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := LoadResults(&buf)
	if err != nil {
		t.Fatalf("streamed output not loadable: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("loaded %d results, wrote %d", len(out), len(in))
	}
	if out[0].Result.Outcome != sim.OutcomeFailsafe || out[0].Case.Injection == nil {
		t.Errorf("round trip lost data: %+v", out[0])
	}
	if out[2].Err != "boom" {
		t.Errorf("round trip lost error: %+v", out[2])
	}
}

// TestResultsWriterHeader: the run-metadata header round-trips through
// both loaders — LoadResultsWithHeader surfaces it, LoadResults and
// LoadPartialResults skip it — and is rejected anywhere but first.
func TestResultsWriterHeader(t *testing.T) {
	hdr := ResultsHeader{
		SpecHash:   "abc123",
		RNGPolicy:  "ziggurat",
		RunnerMode: "batch",
		BatchWidth: 32,
		Workers:    4,
	}
	res := mkResult(1, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6)
	var buf bytes.Buffer
	w := NewResultsWriter(&buf)
	if err := w.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(res); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(hdr); err == nil {
		t.Error("header accepted after a result was written")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	data := buf.Bytes()
	got, out, err := LoadResultsWithHeader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("headered stream not loadable: %v (%q)", err, data)
	}
	if got == nil || *got != hdr {
		t.Errorf("header round trip: got %+v, want %+v", got, hdr)
	}
	if len(out) != 1 || out[0].Case.ID != res.Case.ID {
		t.Errorf("results alongside header: %+v", out)
	}

	plain, err := LoadResults(bytes.NewReader(data))
	if err != nil || len(plain) != 1 {
		t.Errorf("LoadResults over headered file: %d results, err %v", len(plain), err)
	}

	partial, truncated, err := LoadPartialResults(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("LoadPartialResults over headered file: %v", err)
	}
	if truncated {
		t.Error("complete headered file reported truncated")
	}
	if len(partial) != 1 || partial[0].Case.ID != res.Case.ID {
		t.Errorf("resume load over headered file: %+v", partial)
	}
}

// TestResultsHeaderMode: the header names the mode the runner really
// runs in. Without checkpoints nothing forks or batches, whatever Batch
// says, so such a run is "straight" and has no batch width.
func TestResultsHeaderMode(t *testing.T) {
	for _, tc := range []struct {
		name  string
		r     Runner
		mode  string
		width int
	}{
		{"default", Runner{Checkpoint: true, Batch: true}, "batch", DefaultBatchWidth},
		{"batch=false", Runner{Checkpoint: true}, "scalar", 0},
		{"checkpoint=false", Runner{Batch: true}, "straight", 0},
	} {
		h := tc.r.ResultsHeader("hash")
		if h.RunnerMode != tc.mode || h.BatchWidth != tc.width {
			t.Errorf("%s: mode=%s width=%d, want mode=%s width=%d", tc.name, h.RunnerMode, h.BatchWidth, tc.mode, tc.width)
		}
	}
}

func TestResultsWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewResultsWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := LoadResults(&buf)
	if err != nil {
		t.Fatalf("empty stream not loadable: %v (%q)", err, buf.String())
	}
	if len(out) != 0 {
		t.Fatalf("empty stream decoded to %d results", len(out))
	}
}

func TestResultsWriterClosedRejectsWrites(t *testing.T) {
	var buf bytes.Buffer
	w := NewResultsWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
	if err := w.Write(CaseResult{}); err == nil {
		t.Error("write after close accepted")
	}
}

// TestRunnerOnResultStreams: OnResult fires exactly once per case with the
// full payload (trajectory, diagnostics), and the retained results slice
// is stripped of those payloads so memory stays bounded.
func TestRunnerOnResultStreams(t *testing.T) {
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = 3
	r.Config.RecordTrajectory = true
	seen := map[string]int{}
	r.OnResult = func(res CaseResult) {
		seen[res.Case.ID]++
		if res.Err == "" {
			if res.Result.Trajectory == nil {
				t.Errorf("%s: callback saw no trajectory", res.Case.ID)
			}
			if res.Result.Diagnostics == nil {
				t.Errorf("%s: callback saw no diagnostics", res.Case.ID)
			}
		}
	}
	cases := progressCases()
	results := r.RunAll(context.Background(), cases)
	for _, c := range cases {
		if seen[c.ID] != 1 {
			t.Errorf("case %s: OnResult fired %d times", c.ID, seen[c.ID])
		}
	}
	for _, res := range results {
		if res.Result.Trajectory != nil || res.Result.Diagnostics != nil {
			t.Errorf("%s: retained result still carries heavy payloads", res.Case.ID)
		}
	}
	// The flat outcome fields the tables aggregate must survive stripping.
	if g := GoldStats(results); g.N != 1 {
		t.Errorf("gold stats over stripped results: %+v", g)
	}
}

// TestRunnerDecimationOutcomeEquivalence is the miniature version of the
// campaign-level gate: every case outcome under decimated covariance
// propagation (k=4, the default) must be identical to the exact per-step
// path (k=1) — the fault-window full-rate override plus the settle margin
// make decimation invisible to the verdict.
func TestRunnerDecimationOutcomeEquivalence(t *testing.T) {
	run := func(k int) []CaseResult {
		r := NewRunner()
		r.Missions = shortScenario()
		r.Workers = 4
		r.Config.EKF.CovarianceDecimation = k
		return r.RunAll(context.Background(), progressCases())
	}
	exact := run(1)
	decim := run(4)
	for i := range exact {
		e, d := exact[i], decim[i]
		if e.Err != d.Err {
			t.Errorf("%s: err %q vs %q", e.Case.ID, e.Err, d.Err)
		}
		if e.Result.Outcome != d.Result.Outcome ||
			e.Result.InnerViolations != d.Result.InnerViolations ||
			e.Result.OuterViolations != d.Result.OuterViolations ||
			e.Result.FailsafeCause != d.Result.FailsafeCause ||
			e.Result.CrashReason != d.Result.CrashReason {
			t.Errorf("%s: outcome differs between k=1 and k=4:\n exact %+v\n decim %+v",
				e.Case.ID, e.Result, d.Result)
		}
	}
}
