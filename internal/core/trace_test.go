package core

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"uavres/internal/obs"
	"uavres/internal/sim"
)

// tickClock is a goroutine-safe deterministic clock: every read advances
// one millisecond. Workers read it concurrently, so the values any one
// span sees vary run to run — exactly the condition the trace export
// must be deterministic under.
func tickClock() obs.Clock {
	var n atomic.Int64
	return func() float64 { return float64(n.Add(1)) * 1e-3 }
}

// tracedRun executes the batch_test campaign under a tracer and returns
// the tracer plus the results.
func tracedRun(t *testing.T, batch bool, workers int) (*obs.Tracer, []CaseResult) {
	t.Helper()
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = workers
	r.Batch = batch
	r.BatchWidth = 8 // split the 21-case prefix group into several chunks
	r.Clock = tickClock()
	r.Trace = obs.NewTracer(tickClock(), 256)
	r.TraceRoot = r.Trace.Start("campaign", 0, obs.StrAttr("spec", "test"))
	results := r.RunAll(context.Background(), batchCases())
	r.Trace.End(r.TraceRoot)
	return r.Trace, results
}

// caseSpans filters the recorded spans down to the per-case view:
// id → outcome attribute, dropping the mode-specific markers (batched,
// fallback) that legitimately differ between batch and scalar execution.
func caseSpans(t *testing.T, tr *obs.Tracer) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, v := range tr.Spans() {
		if v.Name != "case" {
			continue
		}
		var id, outcome string
		for _, a := range v.Attrs {
			switch a.Key {
			case "id":
				id = a.Str
			case "outcome":
				outcome = a.Str
			}
		}
		if id == "" {
			t.Fatalf("case span without id attr: %+v", v)
		}
		if v.Open {
			t.Fatalf("case span %s left open", id)
		}
		if _, dup := out[id]; dup {
			t.Fatalf("duplicate case span for %s", id)
		}
		out[id] = outcome
	}
	return out
}

// TestRunnerTraceDeterministic: two identical runs must export
// byte-identical trace documents modulo wall timestamps, with exactly
// one case span per case.
func TestRunnerTraceDeterministic(t *testing.T) {
	sig := func() string {
		tr, results := tracedRun(t, true, 4)
		spans := caseSpans(t, tr)
		if len(spans) != len(results) {
			t.Fatalf("case spans = %d, cases = %d", len(spans), len(results))
		}
		for _, res := range results {
			if spans[res.Case.ID] != res.Result.Outcome.String() {
				t.Fatalf("case %s span outcome %q, result %q",
					res.Case.ID, spans[res.Case.ID], res.Result.Outcome)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteTraceEvents(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateTraceEventJSON(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		s, err := obs.TraceSignature(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := sig(), sig(); a != b {
		t.Errorf("identical runs produced different trace signatures:\n%s\nvs\n%s", a, b)
	}
}

// TestRunnerTraceBatchVsScalar: batch and scalar modes structure their
// trees differently (batch spans exist only when batching), but the
// per-case view — every case present exactly once with the same outcome
// — must be identical.
func TestRunnerTraceBatchVsScalar(t *testing.T) {
	trBatch, resBatch := tracedRun(t, true, 4)
	trScalar, resScalar := tracedRun(t, false, 2)
	if len(resBatch) != len(resScalar) {
		t.Fatalf("result counts differ: %d vs %d", len(resBatch), len(resScalar))
	}
	b, s := caseSpans(t, trBatch), caseSpans(t, trScalar)
	if len(b) != len(s) {
		t.Fatalf("case span counts differ: batch %d, scalar %d", len(b), len(s))
	}
	for _, res := range resBatch {
		id := res.Case.ID
		if b[id] != s[id] {
			t.Errorf("case %s: batch outcome %q, scalar outcome %q", id, b[id], s[id])
		}
	}
	// Batch mode must actually have recorded batch spans (the scalar run
	// none), or this test compares two scalar runs.
	var batchSpans int
	for _, v := range trBatch.Spans() {
		if v.Name == "batch" {
			batchSpans++
		}
	}
	if batchSpans == 0 {
		t.Error("batch run recorded no batch spans")
	}
}

// TestMarkCachedCases: cache hits must still appear as closed case
// spans, marked cache_hit with their outcome, so span count keeps
// matching the results file.
func TestMarkCachedCases(t *testing.T) {
	tr := obs.NewTracer(tickClock(), 16)
	root := tr.Start("campaign", 0)
	reused := batchCases()[:3]
	results := make([]CaseResult, len(reused))
	for i, c := range reused {
		results[i] = CaseResult{Case: c, Result: sim.Result{Outcome: sim.OutcomeCompleted}}
	}
	markCachedCases(tr, root, results)
	var hits int
	for _, v := range tr.Spans() {
		if v.Name != "case" {
			continue
		}
		hits++
		if v.Open || v.Parent != root {
			t.Errorf("cached case span not a closed child of the campaign: %+v", v)
		}
		var cached, outcome bool
		for _, a := range v.Attrs {
			switch {
			case a.Key == "cache_hit" && a.Str == "true":
				cached = true
			case a.Key == "outcome" && a.Str == sim.OutcomeCompleted.String():
				outcome = true
			}
		}
		if !cached || !outcome {
			t.Errorf("cached case span missing cache_hit or outcome attr: %+v", v)
		}
	}
	if hits != len(reused) {
		t.Errorf("cache-hit spans = %d, want %d", hits, len(reused))
	}
}

// TestStatusSourceSnapshot: after a full run the status must reconcile
// with the results, and a fresh source must report an idle campaign.
func TestStatusSourceSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRunner()
	r.Missions = shortScenario()
	r.Workers = 2
	r.Obs = reg
	r.Clock = tickClock()
	cases := batchCases()
	for i := range cases {
		cases[i].Hash = "h-" + cases[i].ID
	}
	// The first two cases come from the cache: done without running.
	var prior []CaseResult
	for _, c := range cases[:2] {
		prior = append(prior, CaseResult{Case: c, Result: sim.Result{Outcome: sim.OutcomeCompleted}})
	}
	r.Cache = NewMemoryCache(prior)
	src := NewStatusSource(reg, StatusConfig{
		Total:      len(cases),
		SpecHash:   "abc",
		RunnerMode: "batch",
		BatchWidth: DefaultBatchWidth,
		Workers:    2,
		Clock:      tickClock(),
	})

	idle := src.Snapshot()
	if idle.CasesDone != 0 || idle.Done || idle.ETASeconds != 0 {
		t.Errorf("idle snapshot not idle: %+v", idle)
	}

	results := r.RunAll(context.Background(), cases)

	st := src.Snapshot()
	if st.CasesDone != int64(len(results)) || st.CasesCached != 2 {
		t.Errorf("done=%d cached=%d, want %d/2", st.CasesDone, st.CasesCached, len(results))
	}
	if !st.Done {
		t.Errorf("status not done: %+v", st)
	}
	if st.ETASeconds != 0 {
		t.Errorf("finished campaign has ETA %v", st.ETASeconds)
	}
	if st.MeanCaseSeconds <= 0 {
		t.Errorf("mean case seconds = %v, want > 0 with a ticking clock", st.MeanCaseSeconds)
	}
	// Outcome counters cover simulated cases; hits are not re-counted.
	var completed int64
	for _, res := range results[2:] {
		if res.Err == "" && res.Result.Outcome.Completed() {
			completed++
		}
	}
	if st.Completed != completed {
		t.Errorf("status completed = %d, results say %d", st.Completed, completed)
	}
	if st.SpecHash != "abc" || st.RunnerMode != "batch" || st.Workers != 2 {
		t.Errorf("static fields lost: %+v", st)
	}
	if st.ActiveWorkers != 0 || st.ActiveBatches != 0 {
		t.Errorf("active gauges nonzero after run: %+v", st)
	}
}

// TestStatusSnapshotAllocFree pins one live-status render — the cost each
// /status request and SSE tick puts on a running campaign — at zero
// allocations per op.
func TestStatusSnapshotAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	src := NewStatusSource(reg, StatusConfig{
		Total: 850, RunnerMode: "batch", BatchWidth: DefaultBatchWidth, Workers: 8,
	})
	reg.Counter("campaign_cases_total").Add(425)
	reg.Histogram("campaign_case_seconds", nil).Observe(0.2)
	if n := testing.AllocsPerRun(100, func() {
		if st := src.Snapshot(); st.CasesTotal != 850 {
			t.Fatal("bad snapshot")
		}
	}); n != 0 {
		t.Errorf("StatusSource.Snapshot allocates %v per op, want 0", n)
	}
}
