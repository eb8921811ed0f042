package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/sim"
)

// TestResultsWriterRoundTrip: whatever ResultsWriter writes,
// LoadPartialResults reads back complete and unchanged.
func TestResultsWriterRoundTrip(t *testing.T) {
	freeze := mkResult(1, inj(faultinject.Freeze, faultinject.TargetIMU, 5*time.Second), sim.OutcomeFailsafe, 3, 2, 99.5, 0.4)
	gold := mkResult(2, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6)
	for _, tc := range []struct {
		name string
		in   []CaseResult
	}{
		{"fault and gold", []CaseResult{freeze, gold}},
		{"errored case", []CaseResult{{Case: Case{ID: "broken", MissionID: 7}, Err: "boom"}}},
	} {
		_, out, truncated, err := LoadPartialResults(strings.NewReader(writeResults(t, tc.in, true)))
		if err != nil || truncated {
			t.Fatalf("%s: streamed output not loadable: truncated=%v, err=%v", tc.name, truncated, err)
		}
		if !reflect.DeepEqual(out, tc.in) {
			t.Errorf("%s: round trip changed the results:\nwrote  %+v\nloaded %+v", tc.name, tc.in, out)
		}
	}
}

// TestResultsWriterHeader: the run-metadata header round-trips through
// the one decoder, which returns it apart from the case results, and
// the writer rejects it anywhere but first.
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
	got, out, truncated, err := LoadPartialResults(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("headered stream not loadable: %v (%q)", err, data)
	}
	if truncated {
		t.Error("complete headered file reported truncated")
	}
	if got == nil || *got != hdr {
		t.Errorf("header round trip: got %+v, want %+v", got, hdr)
	}
	if len(out) != 1 || out[0].Case.ID != res.Case.ID {
		t.Errorf("results alongside header: %+v", out)
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
	_, out, truncated, err := LoadPartialResults(&buf)
	if err != nil || truncated {
		t.Fatalf("empty stream not loadable: truncated=%v, err=%v (%q)", truncated, err, buf.String())
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
// propagation (the default cap, windows closed by the fusions) must be
// identical to the exact per-step path (k=1) — the fault-window full-rate
// override plus the settle margin make decimation invisible to the
// verdict.
func TestRunnerDecimationOutcomeEquivalence(t *testing.T) {
	run := func(k int) []CaseResult {
		r := NewRunner()
		r.Missions = shortScenario()
		r.Workers = 4
		r.Config.EKF.CovarianceDecimation = k
		return r.RunAll(context.Background(), progressCases())
	}
	k := sim.DefaultConfig().EKF.CovarianceDecimation
	exact := run(1)
	decim := run(k)
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
			t.Errorf("%s: outcome differs between k=1 and k=%d:\n exact %+v\n decim %+v",
				e.Case.ID, k, e.Result, d.Result)
		}
	}
}
