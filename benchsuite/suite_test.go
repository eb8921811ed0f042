package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uavres/internal/mission"
	"uavres/internal/obs"
	"uavres/internal/spec"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := runChild(os.Args[2:], time.Now()); err != nil {
			os.Stderr.WriteString("benchsuite: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Mission-1 slices of paper-850 and grid-extend keep the end-to-end tests
// short; the child processes find them because every process of the test
// binary runs this init.
func init() {
	mini := func(seed int64) (spec.CampaignSpec, error) {
		s := spec.Paper(seed)
		s.Missions = []int{1}
		return s, nil
	}
	workloads = append(workloads,
		workload{name: "mini", spec: mini},
		workload{name: "mini-grid", spec: mini, fixture: findWorkloadOrPanic("grid-extend").fixture},
	)
}

func findWorkloadOrPanic(name string) workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	return w
}

func TestScatteredStartsPlan(t *testing.T) {
	a, b := scatteredSpec(1), scatteredSpec(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("scattered-starts plan differs between two draws of seed 1")
	}
	if reflect.DeepEqual(a.Select, scatteredSpec(2).Select) {
		t.Fatal("scattered-starts plan does not change with the seed")
	}
	cases, err := a.Compile(mission.Valencia())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(mission.Valencia()) * scatterStarts; len(cases) != want {
		t.Fatalf("plan has %d cases, want %d", len(cases), want)
	}
	type slot struct {
		mission int
		start   time.Duration
	}
	seen := map[slot]string{}
	for _, c := range cases {
		if c.Injection == nil {
			t.Fatalf("plan has a gold case %s", c.ID)
		}
		k := slot{c.MissionID, c.Injection.Start}
		if prev, dup := seen[k]; dup {
			t.Fatalf("cases %s and %s share mission %d, start %v", prev, c.ID, k.mission, k.start)
		}
		seen[k] = c.ID
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares in the given section.
func benchmarkMetrics(t *testing.T, section string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[section], &list); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func testOptions(t *testing.T, name string, trace bool) options {
	return options{
		workload: findWorkloadOrPanic(name), seed: 1, seconds: 1, trace: trace,
		base: t.TempDir(), probes: 2, microReps: 1, microTime: time.Millisecond,
	}
}

func TestMiniSuitePrintsEndToEndMetrics(t *testing.T) {
	var out bytes.Buffer
	res, err := runWorkload(testOptions(t, "mini", false), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 85+oracleCases {
		t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
	}
	want := benchmarkMetrics(t, "end_to_end")
	got := map[string]string{}
	for name, m := range res.Metrics {
		got[name] = m.Unit
		if m.Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, m.Value)
		}
		if !strings.Contains(out.String(), name) {
			t.Errorf("output does not print %s", name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

func TestTracedMiniGridPrintsPerLayerMetrics(t *testing.T) {
	var out bytes.Buffer
	o := testOptions(t, "mini-grid", true)
	res, err := runWorkload(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced mini-grid run is not correct:\n%s", out.String())
	}
	want := benchmarkMetrics(t, "per_layer")
	got := map[string]string{}
	for name, m := range res.Metrics {
		got[name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	// Mission 1's 2 s and 5 s cells plus its gold run are pre-stored.
	if hit := res.Metrics["store.hit_ratio"].Value; hit != 43.0/85 {
		t.Errorf("store.hit_ratio = %v, want 43/85", hit)
	}
	if forked := res.Metrics["core.cases_forked"].Value; forked != 42 {
		t.Errorf("core.cases_forked = %v, want the 42 missed faulty cases", forked)
	}
	data, err := os.ReadFile(filepath.Join(o.base, "trace", "mini-grid.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceEventJSON(data); err != nil {
		t.Fatal(err)
	}
}

// TestResultsMatchCampaign guards against wiring drift: a benchmark rep
// must produce the results cmd/campaign produces for the same spec.
func TestResultsMatchCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/campaign")
	}
	dir := t.TempDir()
	campaign := filepath.Join(dir, "campaign")
	if out, err := exec.Command("go", "build", "-o", campaign, "uavres/cmd/campaign").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/campaign: %v\n%s", err, out)
	}
	s, _ := findWorkloadOrPanic("mini").spec(1)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "mini.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	direct := filepath.Join(dir, "direct.json")
	if out, err := exec.Command(campaign, "-spec", specPath, "-workers", "2", "-q", "-out", direct).CombinedOutput(); err != nil {
		t.Fatalf("cmd/campaign: %v\n%s", err, out)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	repDir := filepath.Join(dir, "rep")
	if err := os.MkdirAll(repDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(exe, "child", "rep", "-workload", "mini", "-seed", "1", "-dir", repDir).CombinedOutput(); err != nil {
		t.Fatalf("benchmark rep: %v\n%s", err, out)
	}
	out, err := exec.Command(campaign, "-compare-results", direct+","+filepath.Join(repDir, "results.json")).CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark results differ from cmd/campaign's: %v\n%s", err, out)
	}
}
