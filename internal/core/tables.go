package core

import (
	"fmt"
	"strings"

	"uavres/internal/faultinject"
)

// RenderTableII renders the paper's Table II: average summary of all
// missions for all faults, grouped by injection duration.
func RenderTableII(results []CaseResult) string {
	rows := append([]GroupStats{GoldStats(results)}, ByDuration(results)...)
	return renderTable("TABLE II: Average summary of all missions for all faults, grouped by injection duration.",
		"Injection Duration", rows, nil)
}

// RenderTableIII renders the paper's Table III: average summary grouped by
// the 21 fault types.
func RenderTableIII(results []CaseResult) string {
	rows := append([]GroupStats{GoldStats(results)}, ByFault(results)...)
	return renderTable("TABLE III: Average summary of all missions and durations, grouped by fault.",
		"Injection Type", rows, nil)
}

// RenderTableIV renders the paper's Table IV: mission failure analysis by
// duration and by component, with the crash/failsafe split of failures.
func RenderTableIV(results []CaseResult) string {
	rows := append(append([]GroupStats{GoldStats(results)}, ByDuration(results)...), ByComponent(results)...)
	return renderTable("TABLE IV: Mission failure analysis.", "Injection Type", nil, rows)
}

// RenderGroupTable renders one grouping of a campaign (ByAirframe,
// ByStart, ByVariant) under a title line: the metric summary and the
// crash/failsafe split of every row, keyed by keyCol.
func RenderGroupTable(title, keyCol string, rows []GroupStats) string {
	return renderTable(title, keyCol, rows, rows)
}

// renderTable renders a title line, then the metric summary of the
// metric rows and the crash/failsafe split of the failure rows, each
// under its header when it has rows.
func renderTable(title, keyCol string, metric, failure []GroupStats) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	if len(metric) > 0 {
		fmt.Fprintf(&b, "%-20s %10s %10s %15s %15s %14s\n",
			keyCol, "Inner (#)", "Outer (#)", "Completed (%)", "Duration (sec)", "Distance (km)")
	}
	for _, g := range metric {
		fmt.Fprintf(&b, "%-20s %10.2f %10.2f %14.2f%% %15.2f %14.2f\n",
			g.Label, g.InnerViolations, g.OuterViolations, g.CompletedPct, g.DurationSec, g.DistanceKm)
	}
	if len(failure) > 0 {
		fmt.Fprintf(&b, "%-20s %26s %10s %13s\n",
			keyCol, "Total Missions Failed (%)", "Crash (%)", "Failsafe (%)")
	}
	for _, g := range failure {
		fmt.Fprintf(&b, "%-20s %25.2f%% %9.1f%% %12.1f%%\n",
			g.Label, g.FailedPct, g.CrashPct, g.FailsafePct)
	}
	return b.String()
}

// RenderFaultModel renders the paper's Table I (the fault-model registry).
func RenderFaultModel() string {
	var b strings.Builder
	b.WriteString("TABLE I: Fault Model for IMUs Used in Drones.\n")
	fmt.Fprintf(&b, "%-22s %-22s %-14s %s\n", "Fault", "Represented by", "Targets", "References")
	for _, fc := range faultinject.Registry() {
		prims := make([]string, 0, len(fc.Primitives))
		for _, p := range fc.Primitives {
			prims = append(prims, p.String())
		}
		targets := make([]string, 0, len(fc.Targets))
		for _, t := range fc.Targets {
			targets = append(targets, t.String())
		}
		fmt.Fprintf(&b, "%-22s %-22s %-14s %s\n",
			fc.Name, strings.Join(prims, "/"), strings.Join(targets, ","), strings.Join(fc.References, " "))
	}
	return b.String()
}
