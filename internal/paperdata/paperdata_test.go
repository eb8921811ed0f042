package paperdata

import (
	"strings"
	"testing"
	"time"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/sim"
)

func TestPublishedTablesComplete(t *testing.T) {
	if got := len(TableII()); got != 5 {
		t.Errorf("Table II rows = %d, want 5 (gold + 4 durations)", got)
	}
	if got := len(TableIII()); got != 22 {
		t.Errorf("Table III rows = %d, want 22 (gold + 21 faults)", got)
	}
	if got := len(TableIV()); got != 8 {
		t.Errorf("Table IV rows = %d, want 8 (gold + 4 durations + 3 components)", got)
	}
}

func TestPublishedValuesSanity(t *testing.T) {
	for _, r := range TableIII() {
		if r.CompletedPct < 0 || r.CompletedPct > 100 {
			t.Errorf("%s: completion %v out of range", r.Label, r.CompletedPct)
		}
		if r.DurationSec <= 0 {
			t.Errorf("%s: duration %v", r.Label, r.DurationSec)
		}
	}
	// Crash + failsafe split of failures sums to 100 for faulty rows.
	for _, r := range TableIV() {
		if r.Label == "Gold Run" {
			continue
		}
		if sum := r.CrashPct + r.FailsafePct; sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: crash+failsafe = %v", r.Label, sum)
		}
	}
}

func TestTableIIILabelsMatchInjectorLabels(t *testing.T) {
	// Every published fault label must be producible by the injector's
	// Label() — otherwise comparisons silently miss rows.
	valid := map[string]bool{}
	for _, tg := range faultinject.Targets() {
		for _, p := range faultinject.Primitives() {
			valid[faultinject.Injection{Primitive: p, Target: tg}.Label()] = true
		}
	}
	for _, r := range TableIII() {
		if r.Label == "Gold Run" {
			continue
		}
		if !valid[r.Label] {
			t.Errorf("published label %q does not match any injector label", r.Label)
		}
	}
}

// synthetic builds a results set that matches the paper's shape so the
// checks pass, then mutates it to verify checks can fail.
func synthetic(goldOK bool, accZerosPct float64) []core.CaseResult {
	var out []core.CaseResult
	mk := func(inj *faultinject.Injection, outcome sim.Outcome, inner int, dur float64) core.CaseResult {
		return core.CaseResult{
			Case: core.Case{ID: "s", MissionID: 1, Injection: inj},
			Result: sim.Result{
				Outcome: outcome, InnerViolations: inner,
				FlightDurationSec: dur,
			},
		}
	}
	goldOutcome := sim.OutcomeCompleted
	goldViol := 0
	if !goldOK {
		goldViol = 3
	}
	out = append(out, mk(nil, goldOutcome, goldViol, 480))

	durations := []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second, 30 * time.Second}
	for _, tg := range faultinject.Targets() {
		for _, p := range faultinject.Primitives() {
			for di, d := range durations {
				inj := &faultinject.Injection{Primitive: p, Target: tg, Start: 90 * time.Second, Duration: d}
				outcome := sim.OutcomeCrash
				dur := 100.0
				switch {
				case tg == faultinject.TargetAccel && p == faultinject.Zeros:
					// Complete accZerosPct of the time (deterministic by
					// duration index).
					if float64(di)/4*100 < accZerosPct {
						outcome = sim.OutcomeCompleted
						dur = 470
					}
				case tg == faultinject.TargetGyro && di >= 2:
					outcome = sim.OutcomeFailsafe
				}
				out = append(out, mk(inj, outcome, 5+di*5, dur))
			}
		}
	}
	return out
}

func TestCompareShapeChecksOnSyntheticData(t *testing.T) {
	checks := Compare(synthetic(true, 100))
	if len(checks) < 10 {
		t.Fatalf("checks = %d, want a meaningful battery", len(checks))
	}
	byName := map[string]Check{}
	for _, c := range checks {
		byName[c.Name] = c
	}
	if c := byName["gold runs complete with zero violations"]; !c.Holds {
		t.Errorf("gold check failed on clean synthetic data: %+v", c)
	}
	if c := byName["Acc Zeros handled better than Acc Min"]; !c.Holds {
		t.Errorf("acc-zeros check failed: %+v", c)
	}
	if c := byName["Gyro Min never completes"]; !c.Holds {
		t.Errorf("gyro-min check failed: %+v", c)
	}
}

func TestCompareDetectsViolatedShape(t *testing.T) {
	checks := Compare(synthetic(false, 0)) // broken gold + fatal Acc Zeros
	byName := map[string]Check{}
	for _, c := range checks {
		byName[c.Name] = c
	}
	if c := byName["gold runs complete with zero violations"]; c.Holds {
		t.Error("gold check passed despite violations")
	}
	if c := byName["Acc Zeros handled better than Acc Min"]; c.Holds {
		t.Error("acc-zeros check passed despite 0% completion")
	}
}

func TestRenderReport(t *testing.T) {
	out := render(Compare(synthetic(true, 100)))
	if !strings.Contains(out, "shape checks:") {
		t.Errorf("report missing summary: %q", out[:60])
	}
	if !strings.Contains(out, "[PASS]") {
		t.Error("report has no passing checks")
	}
	if !strings.Contains(out, "paper:") || !strings.Contains(out, "measured:") {
		t.Error("report missing paper/measured lines")
	}
}

func TestSideBySide(t *testing.T) {
	measured := []core.GroupStats{
		{Label: "Gold Run", CompletedPct: 100, DurationSec: 473},
		{Label: "2 seconds", CompletedPct: 27.1, DurationSec: 197},
	}
	out := sideBySide(TableII(), measured)
	if !strings.Contains(out, "Gold Run") || !strings.Contains(out, "491.26") {
		t.Errorf("side-by-side missing published row:\n%s", out)
	}
	if !strings.Contains(out, "473.0") {
		t.Errorf("side-by-side missing measured row:\n%s", out)
	}
	if !strings.Contains(out, "(missing)") {
		t.Error("rows without measurements should be marked missing")
	}
}
