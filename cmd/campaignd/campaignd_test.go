package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uavres/internal/core"
	"uavres/internal/obs"
	"uavres/internal/spec"
	"uavres/internal/store"
)

// testServer builds a daemon over a fresh store; campaigns run on the
// real in-process runner.
func testServer(t *testing.T) (*server, *store.Store) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return newServer(st, t.TempDir(), true, obs.Stopped()), st
}

// demoSpec is one mission's gyro grid: 1 target x 2 primitives x 2
// durations + 1 gold run = 5 cases.
const demoSpec = `{
 "version": 1,
 "name": "campaignd-test",
 "missions": [1],
 "matrix": {"targets": ["gyro"], "primitives": ["freeze", "zeros"], "durations_sec": [2, 5]}
}`

// TestRunColdThenWarm is the acceptance shape: the first submission
// simulates everything, the second replays everything from the store,
// and the two results files hold bit-identical cases.
func TestRunColdThenWarm(t *testing.T) {
	s, st := testServer(t)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	post := func() runSummary {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(demoSpec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /run: %s: %s", resp.Status, body)
		}
		var sum runSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}

	cold := post()
	if cold.Cases != 5 || cold.CacheMisses != 5 || cold.CacheHits != 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	if cold.Failures != 0 {
		t.Fatalf("cold failures: %+v", cold)
	}
	if st.Stats().Objects != 5 {
		t.Fatalf("store holds %d objects after cold run, want 5", st.Stats().Objects)
	}

	warm := post()
	if warm.CacheHits != 5 || warm.CacheMisses != 0 || warm.CacheHitRatio != 1 {
		t.Fatalf("warm run: %+v", warm)
	}

	// Bit-identity: same cases, same results, replayed from the store.
	coldHdr, coldResults, err := core.LoadResultsFileWithHeader(cold.ResultsPath)
	if err != nil {
		t.Fatal(err)
	}
	_, warmResults, err := core.LoadResultsFileWithHeader(warm.ResultsPath)
	if err != nil {
		t.Fatal(err)
	}
	if coldHdr == nil || coldHdr.RunnerMode != "batch" || coldHdr.Workers < 1 {
		t.Errorf("results header: %+v", coldHdr)
	}
	if len(coldResults) != 5 || len(warmResults) != 5 {
		t.Fatalf("results files hold %d/%d cases, want 5/5", len(coldResults), len(warmResults))
	}
	byID := map[string]core.CaseResult{}
	for _, cr := range warmResults {
		byID[cr.Case.ID] = cr
	}
	for _, cr := range coldResults {
		if !reflect.DeepEqual(cr, byID[cr.Case.ID]) {
			t.Errorf("case %s differs between cold and warm run", cr.Case.ID)
		}
	}

	// The status endpoint reflects the warm run's perfect hit ratio.
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status core.Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.CacheHitRatio != 1 || !status.Done || status.CasesTotal != 5 {
		t.Errorf("status after warm run: %+v", status)
	}

	// And the store endpoint reports the objects backing it.
	resp2, err := http.Get(ts.URL + "/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stats store.Stats
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 5 {
		t.Errorf("store stats: %+v", stats)
	}
}

// TestOverlappingGridRunsOnlyComplement: a wider grid over a warmed
// store simulates exactly the new cells.
func TestOverlappingGridRunsOnlyComplement(t *testing.T) {
	s, _ := testServer(t)
	first, err := s.runCampaign(context.Background(), mustParse(t, demoSpec))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses != 5 {
		t.Fatalf("first run: %+v", first)
	}
	// Same grid plus one extra duration: 2 primitives = 2 new cells;
	// everything else replays.
	wider := strings.Replace(demoSpec, `"durations_sec": [2, 5]`, `"durations_sec": [2, 5, 10]`, 1)
	second, err := s.runCampaign(context.Background(), mustParse(t, wider))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cases != 7 || second.CacheHits != 5 || second.CacheMisses != 2 {
		t.Fatalf("overlapping run did not simulate only the complement: %+v", second)
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	for name, body := range map[string]string{
		"not json":        "{",
		"unknown field":   `{"version": 1, "bogus": true}`,
		"wrong version":   `{"version": 99}`,
		"unknown mission": `{"version": 1, "missions": [42]}`,
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d, want 4xx", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: %d, want 405", resp.StatusCode)
	}
}

func mustParse(t *testing.T, s string) spec.CampaignSpec {
	t.Helper()
	cs, err := spec.Parse([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}
