package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/obs"
)

// testCampaign builds a tiny runnable campaign: one short hop mission
// with a gold case and a few injected cases.
func testCampaign() (*core.Runner, []core.Case) {
	r := core.NewRunner()
	r.Missions = []mission.Mission{{
		ID: 1, Name: "hop", CruiseSpeedMS: 3.33, AltitudeM: 15,
		Drone:     mission.DroneSpec{Name: "t", DimensionM: 0.8, SafetyDistM: 2, MaxSpeedMS: 5},
		Start:     mathx.V3(0, 0, 0),
		Waypoints: []mathx.Vec3{{X: 0, Y: 80, Z: -15}},
	}}
	r.Workers = 2
	cases := []core.Case{{ID: "gold", MissionID: 1, Seed: 5}}
	for i, p := range []faultinject.Primitive{faultinject.Zeros, faultinject.MaxValue, faultinject.Freeze} {
		cases = append(cases, core.Case{
			ID: "f-" + p.String(), MissionID: 1, Seed: 5,
			Injection: &faultinject.Injection{
				Primitive: p, Target: faultinject.TargetGyro,
				Start: 10 * time.Second, Duration: 5 * time.Second,
				Seed: int64(i + 1),
			},
		})
	}
	return r, cases
}

// TestStatusEndpointMidRun drives the real handler stack while a
// campaign executes: /status must answer 200 with well-formed JSON
// mid-run, the SSE stream must deliver parseable snapshots, and the
// final snapshot must reconcile with the results.
func TestStatusEndpointMidRun(t *testing.T) {
	reg := obs.NewRegistry()
	runner, cases := testCampaign()
	runner.Obs = reg
	start := time.Now()
	clock := func() float64 { return time.Since(start).Seconds() }
	runner.Clock = clock

	src := core.NewStatusSource(reg, core.StatusConfig{
		Total:      len(cases),
		SpecHash:   "test-hash",
		RunnerMode: "batch",
		BatchWidth: core.DefaultBatchWidth,
		Workers:    2,
		Clock:      clock,
	})
	mux := metricsMux(reg)
	addStatusHandlers(mux, src)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	getStatus := func() core.Status {
		t.Helper()
		resp, err := http.Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/status returned %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("/status content type %q", ct)
		}
		var st core.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("/status not well-formed JSON: %v", err)
		}
		return st
	}

	if st := getStatus(); st.CasesDone != 0 || st.Done {
		t.Errorf("pre-run status not idle: %+v", st)
	}

	// Poll /status from Progress — guaranteed mid-run, after >=1 case.
	var midChecked atomic.Bool
	runner.Progress = func(done, total int) {
		if midChecked.Swap(true) {
			return
		}
		st := getStatus()
		if st.SpecHash != "test-hash" || st.RunnerMode != "batch" || st.CasesTotal != len(cases) {
			t.Errorf("mid-run status lost static fields: %+v", st)
		}
	}

	results := runner.RunAll(context.Background(), cases)
	if !midChecked.Load() {
		t.Fatal("progress hook never fired; mid-run check did not happen")
	}

	st := getStatus()
	if st.CasesDone != int64(len(results)) || !st.Done {
		t.Errorf("final status done=%d/%v, want %d/true: %+v", st.CasesDone, st.Done, len(results), st)
	}
	if st.Completed+st.Crashed+st.Failsafed+st.TimedOut+st.Errors != int64(len(results)) {
		t.Errorf("outcome counts do not sum to case count: %+v", st)
	}

	// SSE stream: a finished campaign emits one final snapshot and closes.
	resp, err := http.Get(srv.URL + "/status/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/status/stream content type %q", ct)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := strings.CutPrefix(strings.TrimSpace(line), "data: ")
	if !ok {
		t.Fatalf("SSE line %q has no data: prefix", line)
	}
	var streamed core.Status
	if err := json.Unmarshal([]byte(payload), &streamed); err != nil {
		t.Fatalf("SSE payload not JSON: %v", err)
	}
	if !streamed.Done {
		t.Errorf("streamed snapshot of finished campaign not done: %+v", streamed)
	}

	// The metrics endpoint rides the same mux.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics returned %d", mresp.StatusCode)
	}
}
