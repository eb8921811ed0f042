package paperdata

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
	"uavres/internal/sim"
	"uavres/internal/spec"
)

// TestReportMatchesCommittedResults flies the paper's 850 cases at seed 1
// and requires Report to reproduce the committed RESULTS.md byte for
// byte: a change that moves any table cell, shape check or case verdict
// fails here and names the lines that moved. A change that alters the
// numerics on purpose regenerates the file with
//
//	go run ./cmd/campaign -q -out r.json && go run ./cmd/report -in r.json -out RESULTS.md
func TestReportMatchesCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("flies the 850-case paper campaign")
	}
	want, err := os.ReadFile("../../RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cases, err := spec.Paper(1).Compile(mission.Valencia())
	if err != nil {
		t.Fatal(err)
	}
	results := core.NewRunner().RunAll(context.Background(), cases)
	if got := Report(results); got != string(want) {
		t.Errorf("Report differs from RESULTS.md (- committed, + now):\n%s", diffLines(string(want), got))
	}
}

// diffLines lists the lines only one side has, committed ones (-) first.
// Per-case verdict lines start with the case ID, so a flipped case is
// named.
func diffLines(want, got string) string {
	surplus := map[string]int{}
	for _, l := range strings.Split(got, "\n") {
		surplus[l]++
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if surplus[l]--; surplus[l] < 0 {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if surplus[l] > 0 {
			surplus[l]--
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

// planResults fabricates a result for every case of the paper plan, with
// outcomes and non-round float metrics drawn from a fixed seed.
func planResults() []core.CaseResult {
	rng := rand.New(rand.NewSource(7))
	var out []core.CaseResult
	for _, c := range core.Plan(mission.Valencia(), 1) {
		res := sim.Result{
			Outcome:           sim.Outcome(1 + rng.Intn(3)),
			InnerViolations:   rng.Intn(40),
			OuterViolations:   rng.Intn(30),
			FlightDurationSec: 90 + 400*rng.Float64(),
			DistanceKm:        1.7 * rng.Float64(),
		}
		switch res.Outcome {
		case sim.OutcomeCrash:
			res.CrashReason = "hard impact"
		case sim.OutcomeFailsafe:
			res.FailsafeCause = []string{"gyro-rate", "velocity-envelope"}[rng.Intn(2)]
		}
		out = append(out, core.CaseResult{Case: c, Result: res})
	}
	return out
}

func TestReportShapeChecksOnlyOnPaperGrid(t *testing.T) {
	grid := planResults()
	if !strings.Contains(Report(grid), shapeSection) {
		t.Error("paper-grid report has no shape-check section")
	}

	// Mission 1's 85 cases: a slice of the grid, not the grid.
	if got := Report(grid[:85]); strings.Contains(got, shapeSection) {
		t.Error("mini-slice report has a shape-check section")
	}

	// The same 850 IDs with faults on one IMU unit are the redundancy
	// ablation, not the paper's design.
	primary := append([]core.CaseResult(nil), grid...)
	for i := range primary {
		if inj := primary[i].Case.Injection; inj != nil {
			scoped := *inj
			scoped.Scope = faultinject.ScopePrimaryUnit
			primary[i].Case.Injection = &scoped
		}
	}
	if IsPaperGrid(primary) {
		t.Error("primary-unit scope counted as the paper grid")
	}

	// A repeated case in place of a missing one is not the grid.
	dup := append([]core.CaseResult(nil), grid...)
	dup[1] = dup[2]
	if IsPaperGrid(dup) {
		t.Error("duplicated case ID counted as the paper grid")
	}
}

// TestReportOrderIndependent: a results file lists cases in completion
// order, which varies with worker scheduling; the report must not.
func TestReportOrderIndependent(t *testing.T) {
	sorted := planResults()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Case.ID < sorted[j].Case.ID })
	shuffled := append([]core.CaseResult(nil), sorted...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if want, got := Report(sorted), Report(shuffled); got != want {
		t.Errorf("report depends on result order:\n%s", diffLines(want, got))
	}
}
