package core

import (
	"fmt"
	"strings"
)

// RenderTableII renders the paper's Table II: average summary of all
// missions for all faults, grouped by injection duration.
func RenderTableII(results []CaseResult) string {
	var b strings.Builder
	b.WriteString("TABLE II: Average summary of all missions for all faults, grouped by injection duration.\n")
	writeMetricHeader(&b, "Injection Duration")
	writeMetricRow(&b, GoldStats(results))
	for _, row := range ByDuration(results) {
		writeMetricRow(&b, row)
	}
	return b.String()
}

// RenderTableIII renders the paper's Table III: average summary grouped by
// the 21 fault types.
func RenderTableIII(results []CaseResult) string {
	var b strings.Builder
	b.WriteString("TABLE III: Average summary of all missions and durations, grouped by fault.\n")
	writeMetricHeader(&b, "Injection Type")
	writeMetricRow(&b, GoldStats(results))
	for _, row := range ByFault(results) {
		writeMetricRow(&b, row)
	}
	return b.String()
}

// RenderTableIV renders the paper's Table IV: mission failure analysis by
// duration and by component, with the crash/failsafe split of failures.
func RenderTableIV(results []CaseResult) string {
	var b strings.Builder
	b.WriteString("TABLE IV: Mission failure analysis.\n")
	fmt.Fprintf(&b, "%-20s %26s %10s %13s\n",
		"Injection Type", "Total Missions Failed (%)", "Crash (%)", "Failsafe (%)")
	writeFailureRow(&b, GoldStats(results))
	for _, row := range ByDuration(results) {
		writeFailureRow(&b, row)
	}
	for _, row := range ByComponent(results) {
		writeFailureRow(&b, row)
	}
	return b.String()
}

// RenderAirframeTable renders the redundancy comparison: the same fault
// matrix flown on each airframe in the plan, with the metric summary and
// the crash/failsafe split side by side. Single-airframe result sets
// render a one-row table (legacy quad-only campaigns).
func RenderAirframeTable(results []CaseResult) string {
	var b strings.Builder
	b.WriteString("REDUNDANCY: Average summary of all missions and faults, grouped by airframe.\n")
	rows := ByAirframe(results)
	writeMetricHeader(&b, "Airframe")
	for _, row := range rows {
		writeMetricRow(&b, row)
	}
	fmt.Fprintf(&b, "%-20s %26s %10s %13s\n",
		"Airframe", "Total Missions Failed (%)", "Crash (%)", "Failsafe (%)")
	for _, row := range rows {
		writeFailureRow(&b, row)
	}
	return b.String()
}

func writeMetricHeader(b *strings.Builder, keyCol string) {
	fmt.Fprintf(b, "%-20s %10s %10s %15s %15s %14s\n",
		keyCol, "Inner (#)", "Outer (#)", "Completed (%)", "Duration (sec)", "Distance (km)")
}

func writeMetricRow(b *strings.Builder, g GroupStats) {
	fmt.Fprintf(b, "%-20s %10.2f %10.2f %14.2f%% %15.2f %14.2f\n",
		g.Label, g.InnerViolations, g.OuterViolations, g.CompletedPct, g.DurationSec, g.DistanceKm)
}

func writeFailureRow(b *strings.Builder, g GroupStats) {
	fmt.Fprintf(b, "%-20s %25.2f%% %9.1f%% %12.1f%%\n",
		g.Label, g.FailedPct, g.CrashPct, g.FailsafePct)
}

// RenderFaultModel renders the paper's Table I (the fault-model registry).
func RenderFaultModel() string {
	var b strings.Builder
	b.WriteString("TABLE I: Fault Model for IMUs Used in Drones.\n")
	fmt.Fprintf(&b, "%-22s %-22s %-14s %s\n", "Fault", "Represented by", "Targets", "References")
	for _, fc := range Registry() {
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

// Registry re-exports the fault model for table rendering without forcing
// callers through the faultinject package.
var Registry = registryFunc
