package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// SaveResults writes campaign results as JSON.
func SaveResults(w io.Writer, results []CaseResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(results); err != nil {
		return fmt.Errorf("core: encoding results: %w", err)
	}
	return nil
}

// LoadResults reads campaign results from JSON, skipping any run-metadata
// header element (see ResultsWriter.WriteHeader).
func LoadResults(r io.Reader) ([]CaseResult, error) {
	_, out, err := LoadResultsWithHeader(r)
	return out, err
}

// LoadResultsWithHeader is LoadResults plus the run-metadata header, when
// the file carries one (nil otherwise). Only the first header element is
// returned.
func LoadResultsWithHeader(r io.Reader) (*ResultsHeader, []CaseResult, error) {
	var els []resultsElement
	if err := json.NewDecoder(r).Decode(&els); err != nil {
		return nil, nil, fmt.Errorf("core: decoding results: %w", err)
	}
	var hdr *ResultsHeader
	out := make([]CaseResult, 0, len(els))
	for _, el := range els {
		if el.Header != nil {
			if hdr == nil {
				hdr = el.Header
			}
			continue
		}
		out = append(out, el.CaseResult)
	}
	return hdr, out, nil
}

// SaveResultsFile and LoadResultsFile are the file-path conveniences the
// campaign and report commands share.
func SaveResultsFile(path string, results []CaseResult) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	if err := SaveResults(f, results); err != nil {
		return err
	}
	return f.Close()
}

// LoadResultsFile reads campaign results from a JSON file.
func LoadResultsFile(path string) ([]CaseResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadResults(f)
}

// LoadResultsFileWithHeader is LoadResultsWithHeader over a file path.
func LoadResultsFileWithHeader(path string) (*ResultsHeader, []CaseResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadResultsWithHeader(f)
}
