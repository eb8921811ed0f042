package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"uavres/internal/faultinject"
	"uavres/internal/physics"
	"uavres/internal/sim"
)

// GroupStats aggregates one table row: the mean metrics over a group of
// runs, in the paper's units.
type GroupStats struct {
	// Label names the group ("Gold Run", "2 seconds", "Gyro Freeze", ...).
	Label string `json:"label"`
	// N is the number of runs aggregated.
	N int `json:"n"`
	// InnerViolations and OuterViolations are mean per-run counts.
	InnerViolations float64 `json:"inner_violations"`
	OuterViolations float64 `json:"outer_violations"`
	// CompletedPct is the percentage of missions completed.
	CompletedPct float64 `json:"completed_pct"`
	// DurationSec and DistanceKm are mean flight duration and distance.
	DurationSec float64 `json:"duration_sec"`
	DistanceKm  float64 `json:"distance_km"`
	// FailedPct is 100 - CompletedPct.
	FailedPct float64 `json:"failed_pct"`
	// CrashPct and FailsafePct split the FAILED runs (timeouts are
	// grouped with failsafe: an operator would have terminated them).
	CrashPct    float64 `json:"crash_pct"`
	FailsafePct float64 `json:"failsafe_pct"`
}

func aggregate(label string, runs []sim.Result) GroupStats {
	g := GroupStats{Label: label, N: len(runs)}
	if len(runs) == 0 {
		return g
	}
	var completed, crashed, failsafed int
	for _, r := range runs {
		g.InnerViolations += float64(r.InnerViolations)
		g.OuterViolations += float64(r.OuterViolations)
		g.DurationSec += r.FlightDurationSec
		g.DistanceKm += r.DistanceKm
		switch r.Outcome {
		case sim.OutcomeCompleted:
			completed++
		case sim.OutcomeCrash:
			crashed++
		default: // failsafe and timeout
			failsafed++
		}
	}
	n := float64(len(runs))
	g.InnerViolations /= n
	g.OuterViolations /= n
	g.DurationSec /= n
	g.DistanceKm /= n
	g.CompletedPct = 100 * float64(completed) / n
	g.FailedPct = 100 - g.CompletedPct
	if failed := crashed + failsafed; failed > 0 {
		g.CrashPct = 100 * float64(crashed) / float64(failed)
		g.FailsafePct = 100 * float64(failsafed) / float64(failed)
	}
	return g
}

// ok filters out infrastructure failures and returns the flight results.
func ok(results []CaseResult) (gold, faulty []CaseResult) {
	for _, cr := range results {
		if cr.Err != "" {
			continue
		}
		if cr.Case.Injection == nil {
			gold = append(gold, cr)
		} else {
			faulty = append(faulty, cr)
		}
	}
	return gold, faulty
}

func sims(crs []CaseResult) []sim.Result {
	out := make([]sim.Result, 0, len(crs))
	for _, cr := range crs {
		out = append(out, cr.Result)
	}
	return out
}

// GoldStats aggregates the fault-free reference runs.
func GoldStats(results []CaseResult) GroupStats {
	gold, _ := ok(results)
	return aggregate("Gold Run", sims(gold))
}

// groupRows aggregates runs into one row per key, in the order compare
// gives the keys, each labelled by label.
func groupRows[K comparable](runs []CaseResult, key func(CaseResult) K, compare func(a, b K) int, label func(K) string) []GroupStats {
	groups := map[K][]sim.Result{}
	var keys []K
	for _, cr := range runs {
		k := key(cr)
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], cr.Result)
	}
	slices.SortFunc(keys, compare)
	out := make([]GroupStats, 0, len(keys))
	for _, k := range keys {
		out = append(out, aggregate(label(k), groups[k]))
	}
	return out
}

// ByDuration groups faulty runs by injection duration (Table II rows).
// Rows are ordered by increasing duration.
func ByDuration(results []CaseResult) []GroupStats {
	_, faulty := ok(results)
	return groupRows(faulty, func(cr CaseResult) time.Duration { return cr.Case.Injection.Duration },
		cmp.Compare, func(d time.Duration) string { return fmt.Sprintf("%d seconds", int(d.Seconds())) })
}

// ByFault groups faulty runs by the 21 injection labels (Table III rows).
// Rows are grouped by component (Acc, Gyro, IMU) and sorted by descending
// completion within each component, matching the paper's presentation.
func ByFault(results []CaseResult) []GroupStats {
	_, faulty := ok(results)
	target := map[string]faultinject.Target{}
	rows := groupRows(faulty, func(cr CaseResult) string {
		inj := cr.Case.Injection
		target[inj.Label()] = inj.Target
		return inj.Label()
	}, cmp.Compare, func(label string) string { return label })
	// By component, then most completed first; ties keep label order.
	slices.SortStableFunc(rows, func(a, b GroupStats) int {
		return cmp.Or(cmp.Compare(target[a.Label], target[b.Label]), cmp.Compare(b.CompletedPct, a.CompletedPct))
	})
	return rows
}

// ByComponent groups faulty runs by injection target (Table IV, bottom):
// the paper's three sensor targets, then the actuator extension.
func ByComponent(results []CaseResult) []GroupStats {
	_, faulty := ok(results)
	return groupRows(faulty, func(cr CaseResult) faultinject.Target { return cr.Case.Injection.Target },
		cmp.Compare, faultinject.Target.String)
}

// ByAirframe groups ALL runs (gold and faulty) by the case's airframe —
// the redundancy comparison: identical fault matrices flown on quad-x,
// hexa-x, and octo-x layouts — in rotor-count order, unknown labels
// last. An empty Case.Airframe reports as quad-x.
func ByAirframe(results []CaseResult) []GroupStats {
	gold, faulty := ok(results)
	return groupRows(append(gold, faulty...), func(cr CaseResult) string {
		if cr.Case.Airframe == "" {
			return physics.QuadX.String()
		}
		return cr.Case.Airframe
	}, func(a, b string) int {
		return cmp.Or(cmp.Compare(airframeRank(a), airframeRank(b)), cmp.Compare(a, b))
	}, func(label string) string { return label })
}

func airframeRank(label string) int {
	frame, err := physics.ParseAirframe(label)
	if err != nil {
		return physics.MaxRotors + 1
	}
	return frame.Rotors()
}

// ByStart groups faulty runs by injection start, earliest first: the
// flight-phase comparison of a spec with several starts_sec.
func ByStart(results []CaseResult) []GroupStats {
	_, faulty := ok(results)
	return groupRows(faulty, func(cr CaseResult) time.Duration { return cr.Case.Injection.Start },
		cmp.Compare, func(st time.Duration) string {
			return "T+" + strconv.FormatFloat(st.Seconds(), 'g', -1, 64) + " s"
		})
}

// ByVariant groups ALL runs (gold and faulty) by the case's variant:
// cases with none first, as "default", then the names in order.
func ByVariant(results []CaseResult) []GroupStats {
	gold, faulty := ok(results)
	return groupRows(append(gold, faulty...), CaseResult.variantName, cmp.Compare, func(name string) string {
		return cmp.Or(name, "default")
	})
}

// Find returns the stats row with the given label, if present.
func Find(rows []GroupStats, label string) (GroupStats, bool) {
	for _, r := range rows {
		if r.Label == label {
			return r, true
		}
	}
	return GroupStats{}, false
}
