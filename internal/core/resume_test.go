package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/obs"
	"uavres/internal/sim"
)

// hashedCases builds a small campaign with fingerprints, reusing the
// runner-test scenario.
func hashedCases() []Case {
	mk := func(p faultinject.Primitive, seed int64) *faultinject.Injection {
		return &faultinject.Injection{
			Primitive: p, Target: faultinject.TargetGyro,
			Start: 20 * time.Second, Duration: 2 * time.Second, Seed: seed,
		}
	}
	cases := []Case{
		{ID: "gold", MissionID: 1, Seed: 31},
		{ID: "f1", MissionID: 1, Seed: 31, Injection: mk(faultinject.Zeros, 1)},
		{ID: "f2", MissionID: 1, Seed: 31, Injection: mk(faultinject.Noise, 2)},
		{ID: "f3", MissionID: 1, Seed: 31, Injection: mk(faultinject.Freeze, 3)},
	}
	for i := range cases {
		cases[i].Hash = "h-" + cases[i].ID
	}
	return cases
}

// TestResumeRunsOnlyMissingCases: a results file cut off mid-element
// resumes through the ordinary cache path (LoadPartialResults feeds
// NewMemoryCache, RunAll replays what the file holds). Only the missing
// cases and the one whose fingerprint moved simulate, and the resumed
// file holds the same results as the uninterrupted run.
func TestResumeRunsOnlyMissingCases(t *testing.T) {
	cases := hashedCases()
	newRunner := func() *Runner {
		r := NewRunner()
		r.Missions = shortScenario()
		r.Workers = 2
		r.Obs = obs.NewRegistry()
		return r
	}
	// run executes cases on r, streaming them into a results file, and
	// returns the file plus the byte offset at which each element ends.
	run := func(r *Runner, cases []Case) ([]byte, []int) {
		var buf bytes.Buffer
		w := NewResultsWriter(&buf)
		if err := w.WriteHeader(r.ResultsHeader("resume-test")); err != nil {
			t.Fatal(err)
		}
		var ends []int
		r.OnResult = func(res CaseResult) { // called from runner workers
			if err := w.Write(res); err != nil {
				t.Error(err)
			}
			ends = append(ends, buf.Len())
		}
		r.RunAll(context.Background(), cases)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), ends
	}

	full, ends := run(newRunner(), cases)
	_, want, truncated, err := LoadPartialResults(bytes.NewReader(full))
	if err != nil || truncated || len(want) != len(cases) {
		t.Fatalf("full run: %d results, truncated=%v, err=%v", len(want), truncated, err)
	}

	// The process died halfway through writing the third case.
	cut := full[:(ends[1]+ends[2])/2]
	_, prior, truncated, err := LoadPartialResults(bytes.NewReader(cut))
	if err != nil || !truncated || len(prior) != 2 {
		t.Fatalf("cut file: %d results, truncated=%v, err=%v", len(prior), truncated, err)
	}

	// The config changed under the first recorded case: its fingerprint
	// moved, so its prior result is stale and must re-run.
	stale := prior[0].Case.ID
	resumed := append([]Case(nil), cases...)
	for i := range resumed {
		if resumed[i].ID == stale {
			resumed[i].Hash += "-v2"
		}
	}
	for i := range want {
		if want[i].Case.ID == stale {
			want[i].Case.Hash += "-v2"
		}
	}

	r := newRunner()
	r.Cache = NewMemoryCache(prior)
	out, _ := run(r, resumed)
	if got := r.Obs.Counter("campaign_cases_total").Value(); got != 3 {
		t.Errorf("resume simulated %d cases, want 3 (2 missing + 1 stale)", got)
	}
	if got := r.Obs.Counter("campaign_cache_hits_total").Value(); got != 1 {
		t.Errorf("resume replayed %d cases, want 1", got)
	}

	_, got, truncated, err := LoadPartialResults(bytes.NewReader(out))
	if err != nil || truncated {
		t.Fatalf("resumed file: truncated=%v, err=%v", truncated, err)
	}
	SortByID(got)
	SortByID(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed results differ from the uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestResumeIsByteIdentical: a results file cut right after its header,
// between two elements or inside an element resumes to the very bytes of
// the uninterrupted run. The cases are listed in reverse of the order the
// runner schedules them, so a file written in completion order, or one
// that streams its cache hits ahead of the fresh results, would differ.
func TestResumeIsByteIdentical(t *testing.T) {
	var cases []Case
	for _, sec := range []int{20, 17, 14, 11, 8} {
		id := fmt.Sprintf("gyro-freeze@%ds", sec)
		cases = append(cases, Case{ID: id, Hash: "h-" + id, MissionID: 1, Seed: 41,
			Injection: &faultinject.Injection{
				Primitive: faultinject.Freeze, Target: faultinject.TargetGyro,
				Start: time.Duration(sec) * time.Second, Duration: 2 * time.Second, Seed: int64(sec),
			}})
	}
	cases = append(cases, Case{ID: "gold", Hash: "h-gold", MissionID: 1, Seed: 41})

	// run streams the campaign into path, resuming from prior when the
	// run has a cache.
	run := func(path string, cache ResultCache) {
		r := NewRunner()
		r.Missions = shortScenario()
		r.Workers = 2
		r.BatchWidth = 2
		r.Cache = cache
		w, err := NewResultsFileWriter(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteHeader(r.ResultsHeader("resume-bytes")); err != nil {
			t.Fatal(err)
		}
		r.OnResult = func(res CaseResult) {
			if err := w.Write(res); err != nil {
				t.Error(err)
			}
		}
		r.RunAll(context.Background(), cases)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	run(full, nil)
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Element k (the header is element 0) ends where the comma before
	// element k+1 begins.
	var ends []int
	for i := 0; ; {
		j := bytes.Index(want[i:], []byte("\n,"))
		if j < 0 {
			break
		}
		i += j + 1
		ends = append(ends, i)
	}
	if len(ends) != len(cases) {
		t.Fatalf("full file has %d element boundaries, want %d", len(ends), len(cases))
	}

	for _, cut := range []struct {
		name string
		at   int
	}{
		{"header-end", ends[0]},
		{"between-elements", ends[3]},
		{"mid-element", (ends[3] + ends[4]) / 2},
	} {
		path := filepath.Join(dir, cut.name+".json")
		if err := os.WriteFile(path, want[:cut.at], 0o644); err != nil {
			t.Fatal(err)
		}
		_, prior, _, err := LoadPartialResultsFile(path)
		if err != nil {
			t.Fatalf("%s: %v", cut.name, err)
		}
		run(path, NewMemoryCache(prior))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: resumed file (%d bytes, %d prior results) differs from the uninterrupted run (%d bytes)",
				cut.name, len(got), len(prior), len(want))
		}
	}
}

// completedPrior records every case as a clean completed result, the
// shape a finished results file resumes from.
func completedPrior(cases []Case) []CaseResult {
	prior := make([]CaseResult, len(cases))
	for i, c := range cases {
		prior[i] = CaseResult{Case: c, Result: sim.Result{Outcome: sim.OutcomeCompleted}}
	}
	return prior
}

// resumeFrom runs cases with prior results as the resume cache and
// returns the results plus the runner's registry.
func resumeFrom(cases []Case, prior []CaseResult) ([]CaseResult, *obs.Registry) {
	reg := obs.NewRegistry()
	r := cachedRunner(reg)
	r.Cache = NewMemoryCache(prior)
	return r.RunAll(context.Background(), cases), reg
}

// TestResumeStaleHashReruns: a prior result whose fingerprint no longer
// matches the compiled case is re-executed, not reused.
func TestResumeStaleHashReruns(t *testing.T) {
	cases := hashedCases()
	prior := completedPrior(cases)
	// The config changed under f1: its compiled hash moved.
	cases[1].Hash = "h-f1-v2"
	results, reg := resumeFrom(cases, prior)
	if got := reg.Counter("campaign_cases_total").Value(); got != 1 {
		t.Fatalf("stale resume simulated %d cases, want 1", got)
	}
	if got := reg.Counter("campaign_cache_hits_total").Value(); got != 3 {
		t.Fatalf("reused %d, want 3", got)
	}
	if got := results[1]; got.Case.ID != "f1" || got.Case.Hash != "h-f1-v2" || got.Err != "" {
		t.Errorf("f1 not re-run under its new fingerprint: %+v", got.Case)
	}
}

// TestResumeNeverTrustsHashlessCases: without fingerprints (legacy
// files, hand-built cases) everything re-runs.
func TestResumeNeverTrustsHashlessCases(t *testing.T) {
	cases := hashedCases()
	prior := completedPrior(cases)
	for i := range cases {
		cases[i].Hash = ""
		prior[i].Case.Hash = ""
	}
	_, reg := resumeFrom(cases, prior)
	if got := reg.Counter("campaign_cache_hits_total").Value(); got != 0 {
		t.Fatalf("hashless resume reused %d cases", got)
	}
	if got := reg.Counter("campaign_cases_total").Value(); got != int64(len(cases)) {
		t.Fatalf("hashless resume simulated %d cases, want %d", got, len(cases))
	}
}

// TestResumeErroredCasesRerun: execution errors (including cancellation)
// are infrastructure failures, not outcomes — they re-run.
func TestResumeErroredCasesRerun(t *testing.T) {
	cases := hashedCases()
	prior := []CaseResult{
		{Case: cases[0], Result: sim.Result{Outcome: sim.OutcomeCompleted}},
		{Case: cases[1], Err: "cancelled"},
	}
	results, reg := resumeFrom(cases, prior)
	if got := reg.Counter("campaign_cache_hits_total").Value(); got != 1 {
		t.Fatalf("reused %d, want 1", got)
	}
	if got := reg.Counter("campaign_cases_total").Value(); got != 3 {
		t.Fatalf("simulated %d cases, want 3", got)
	}
	if results[1].Case.ID != "f1" || results[1].Err != "" {
		t.Errorf("errored f1 not re-run cleanly: %+v", results[1])
	}
}

// writeResults streams results exactly as cmd/campaign does.
func writeResults(t *testing.T, results []CaseResult, closed bool) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewResultsWriter(&buf)
	for _, r := range results {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if closed {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func resumeResults() []CaseResult {
	return []CaseResult{
		mkResult(1, inj(faultinject.Freeze, faultinject.TargetIMU, 5*time.Second), sim.OutcomeFailsafe, 3, 2, 99.5, 0.4),
		mkResult(2, nil, sim.OutcomeCompleted, 0, 0, 490, 3.6),
	}
}

func TestLoadPartialResultsComplete(t *testing.T) {
	text := writeResults(t, resumeResults(), true)
	_, got, truncated, err := LoadPartialResults(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("complete file reported truncated")
	}
	if len(got) != 2 || got[0].Result.Outcome != sim.OutcomeFailsafe {
		t.Fatalf("loaded %d results: %+v", len(got), got)
	}
}

// TestLoadPartialResultsTruncated: a file cut off mid-element (the
// process died writing) yields the clean prefix and truncated=true, and
// LoadResultsFile, which wants a finished campaign, refuses it.
func TestLoadPartialResultsTruncated(t *testing.T) {
	text := writeResults(t, resumeResults(), false) // no closing bracket
	dir := t.TempDir()
	for i, cut := range []string{
		text,                 // unterminated array, whole elements
		text[:len(text)*3/4], // torn element
		text[:len(text)/2],   // torn earlier
		"",                   // nothing written yet
	} {
		_, got, truncated, err := LoadPartialResults(strings.NewReader(cut))
		if err != nil {
			t.Fatalf("cut %d bytes: %v", len(cut), err)
		}
		if !truncated {
			t.Errorf("cut %d bytes: not reported truncated", len(cut))
		}
		for _, cr := range got {
			if cr.Case.ID == "" {
				t.Errorf("cut %d bytes: torn element surfaced: %+v", len(cut), cr)
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("cut%d.json", i))
		if err := os.WriteFile(path, []byte(cut), 0o644); err != nil {
			t.Fatal(err)
		}
		if res, err := LoadResultsFile(path); err == nil {
			t.Errorf("cut %d bytes: LoadResultsFile accepted a truncated file (%d results)", len(cut), len(res))
		}
	}
}

// TestLoadPartialResultsHeaderOnly: a campaign interrupted before (or
// right after) its first case leaves just the run-metadata element.
// That is the zero-progress resume — no prior results, no error —
// whether the array was closed cleanly or cut off.
func TestLoadPartialResultsHeaderOnly(t *testing.T) {
	for _, tc := range []struct {
		name      string
		closed    bool
		wantTrunc bool
	}{
		{"closed", true, false},
		{"truncated", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewResultsWriter(&buf)
			if err := w.WriteHeader(ResultsHeader{RunnerMode: "batch", BatchWidth: 32}); err != nil {
				t.Fatal(err)
			}
			if tc.closed {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			_, got, truncated, err := LoadPartialResults(strings.NewReader(buf.String()))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Errorf("header-only file yielded %d results: %+v", len(got), got)
			}
			if truncated != tc.wantTrunc {
				t.Errorf("truncated = %v, want %v", truncated, tc.wantTrunc)
			}
		})
	}
}

// TestLoadPartialResultsCorruptHeader: a garbled header line is a real
// error naming its line — resume must refuse the file, not silently
// treat it as zero progress and overwrite it.
func TestLoadPartialResultsCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewResultsWriter(&buf)
	if err := w.WriteHeader(ResultsHeader{RunnerMode: "batch"}); err != nil {
		t.Fatal(err)
	}
	for _, r := range resumeResults() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	text := strings.Replace(buf.String(), `"header"`, `"header" ###`, 1)
	_, _, _, err := LoadPartialResults(strings.NewReader(text))
	if err == nil {
		t.Fatal("corrupt header accepted")
	}
	if !strings.Contains(err.Error(), "line") {
		t.Errorf("error does not name a line: %v", err)
	}
}

// TestLoadPartialResultsCorrupt: corruption inside the file, a document
// that is not a results array and an element without a case ID are real
// errors that name a line, not a panic and not a silent partial.
func TestLoadPartialResultsCorrupt(t *testing.T) {
	lines := strings.Split(writeResults(t, resumeResults(), true), "\n")
	// Garble a line inside the first element.
	lines[2] = `   "mission_id": ###,`
	for _, tc := range []struct {
		name, text string
		line       bool
	}{
		{"garbled element", strings.Join(lines, "\n"), true},
		{"object", `{"a":1}`, false},
		{"not json", "not json", true},
		{"no case ID", `[{"mission_id": 1}]`, true},
	} {
		_, _, _, err := LoadPartialResults(strings.NewReader(tc.text))
		if err == nil {
			t.Errorf("%s: loaded without error", tc.name)
			continue
		}
		if tc.line && !strings.Contains(err.Error(), "line") {
			t.Errorf("%s: error does not name a line: %v", tc.name, err)
		}
	}
}

// FuzzLoadPartialResults feeds arbitrary bytes to the one results-file
// decoder, the only way a results file reaches the runner's cache, a
// report or a comparison. Any input loads or fails with an error, never
// a panic; whatever loads carries a case ID on every result and survives
// a ResultsWriter round trip.
//
// omitempty writes an empty slice or map exactly like an absent one, so
// a first load may hold an empty value the writer drops (the
// empty-slice seed). The round trip is therefore pinned on the
// writer's own output: re-writing it reproduces the file byte for byte,
// and loading it again gives DeepEqual results.
func FuzzLoadPartialResults(f *testing.F) {
	load := func(t *testing.T, text string) []CaseResult {
		t.Helper()
		_, results, truncated, err := LoadPartialResults(strings.NewReader(text))
		if err != nil || truncated {
			t.Fatalf("re-written results do not load: truncated=%v, err=%v", truncated, err)
		}
		return results
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, results, _, err := LoadPartialResults(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, cr := range results {
			if cr.Case.ID == "" {
				t.Fatalf("result %d has no case ID", i)
			}
		}
		text := writeResults(t, results, true)
		canonical := load(t, text)
		if len(canonical) != len(results) {
			t.Fatalf("round trip kept %d of %d results", len(canonical), len(results))
		}
		again := writeResults(t, canonical, true)
		if again != text {
			t.Fatalf("re-writing changed the file:\n%s\nvs\n%s", text, again)
		}
		if reloaded := load(t, again); !reflect.DeepEqual(reloaded, canonical) {
			t.Fatalf("round trip changed the results:\nbefore %+v\nafter  %+v", canonical, reloaded)
		}
	})
}
