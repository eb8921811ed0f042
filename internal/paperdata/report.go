package paperdata

import (
	"fmt"
	"sort"
	"strings"

	"uavres/internal/analysis"
	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/mission"
)

// Report renders everything the repository reports for a set of campaign
// results as one Markdown document: Table I, the measured Tables II-IV,
// the per-airframe table when the results span more than one airframe,
// the paper-vs-measured comparison when the results are the paper grid,
// the secondary analysis, and one verdict line per case.
//
// Results are aggregated in case-ID order and no input path is printed,
// so the same results render the same bytes whatever order they were
// written in.
func Report(results []core.CaseResult) string {
	sorted := append([]core.CaseResult(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Case.ID < sorted[j].Case.ID })

	var b strings.Builder
	b.WriteString("# IMU fault-injection campaign report\n\n")
	fmt.Fprintf(&b, "%d cases.\n\n", len(sorted))

	b.WriteString("## Fault model\n\n```\n")
	b.WriteString(core.RenderFaultModel())
	b.WriteString("```\n\n")

	b.WriteString("## Paper tables (measured)\n\n```\n")
	b.WriteString(core.RenderTableII(sorted))
	b.WriteString("\n")
	b.WriteString(core.RenderTableIII(sorted))
	b.WriteString("\n")
	b.WriteString(core.RenderTableIV(sorted))
	b.WriteString("```\n\n")

	if len(core.ByAirframe(sorted)) > 1 {
		b.WriteString("## Redundancy by airframe\n\n```\n")
		b.WriteString(core.RenderAirframeTable(sorted))
		b.WriteString("```\n\n")
	}

	if IsPaperGrid(sorted) {
		b.WriteString(shapeSection)
		b.WriteString("\n\n```\n")
		b.WriteString(render(Compare(sorted)))
		b.WriteString("\nTable II side-by-side:\n")
		gold := core.GoldStats(sorted)
		b.WriteString(sideBySide(TableII(), append([]core.GroupStats{gold}, core.ByDuration(sorted)...)))
		b.WriteString("\nTable III side-by-side:\n")
		b.WriteString(sideBySide(TableIII(), append([]core.GroupStats{gold}, core.ByFault(sorted)...)))
		b.WriteString("```\n\n")
	}

	b.WriteString(analysis.RenderMarkdown(sorted, mission.Valencia()))

	b.WriteString("\n## Per-case verdicts\n\n")
	b.WriteString("One line per case: id, outcome, inner and outer violations, failsafe or crash cause.\n\n```\n")
	for _, cr := range sorted {
		b.WriteString(verdict(cr))
		b.WriteString("\n")
	}
	b.WriteString("```\n")
	return b.String()
}

// shapeSection heads the paper-vs-measured comparison in Report; it is
// present exactly when the results are the paper grid.
const shapeSection = "## Paper-vs-measured shape checks"

// verdict is one case's line in the Report appendix.
func verdict(cr core.CaseResult) string {
	if cr.Err != "" {
		return fmt.Sprintf("%s error - - %s", cr.Case.ID, cr.Err)
	}
	r := cr.Result
	cause := r.FailsafeCause + r.CrashReason
	if cause == "" {
		cause = "-"
	}
	return fmt.Sprintf("%s %v %d %d %s", cr.Case.ID, r.Outcome, r.InnerViolations, r.OuterViolations, cause)
}

// IsPaperGrid reports whether results are exactly the paper's 850-case
// design, however the campaign was specified: the case IDs of core.Plan
// over the Valencia scenario, every fault striking all redundant IMUs.
func IsPaperGrid(results []core.CaseResult) bool {
	plan := core.Plan(mission.Valencia(), 0)
	if len(results) != len(plan) {
		return false
	}
	want := make(map[string]bool, len(plan))
	for _, c := range plan {
		want[c.ID] = true
	}
	for _, cr := range results {
		if !want[cr.Case.ID] {
			return false
		}
		delete(want, cr.Case.ID) // a repeated ID is not the grid
		if inj := cr.Case.Injection; inj != nil && inj.Scope != faultinject.ScopeAllUnits {
			return false
		}
	}
	return true
}
