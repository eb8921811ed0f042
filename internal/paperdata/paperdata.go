// Package paperdata holds the numbers published in the paper's evaluation
// tables, compares a campaign's measured results against them, and
// renders the one campaign report (Report). The reproduction targets the
// paper's qualitative shape — orderings, trends, crossover points — not
// its absolute values, and the comparison checks exactly those shape
// properties.
package paperdata

import (
	"fmt"
	"strings"

	"uavres/internal/core"
	"uavres/internal/mathx"
)

// Row mirrors one table row as published.
type Row struct {
	Label        string
	Inner        float64
	Outer        float64
	CompletedPct float64
	DurationSec  float64
	DistanceKm   float64
}

// FailureRow mirrors one Table IV row as published.
type FailureRow struct {
	Label       string
	FailedPct   float64
	CrashPct    float64
	FailsafePct float64
}

// TableII returns the paper's Table II (grouped by injection duration).
func TableII() []Row {
	return []Row{
		{"Gold Run", 0, 0, 100, 491.26, 3.65},
		{"2 seconds", 18.30, 17.81, 20, 188.87, 0.98},
		{"5 seconds", 20.16, 16.79, 15.23, 146.07, 0.81},
		{"10 seconds", 20.97, 19.16, 11.42, 151.90, 0.69},
		{"30 seconds", 24.47, 21.65, 10.47, 154.70, 0.75},
	}
}

// TableIII returns the paper's Table III (grouped by fault type).
func TableIII() []Row {
	return []Row{
		{"Gold Run", 0, 0, 100, 491.26, 3.65},
		{"Acc Zeros", 23.36, 17.5, 67.5, 338.67, 2.45},
		{"Acc Noise", 25.23, 13.48, 60, 306.11, 2.22},
		{"Acc Freeze", 23.40, 15.82, 42.5, 244.09, 1.80},
		{"Acc Random", 20.13, 16.34, 5, 110.76, 0.55},
		{"Acc Min", 20.57, 24.25, 5, 137.18, 0.51},
		{"Acc Max", 41.32, 35.32, 2.5, 103.35, 0.73},
		{"Acc Fixed Value", 40.30, 36.51, 2.5, 103.99, 0.75},
		{"Gyro Zeros", 18.88, 18.15, 40, 223.21, 1.20},
		{"Gyro Fixed Value", 17.51, 15.90, 17.5, 159.57, 0.49},
		{"Gyro Freeze", 19.11, 21.5, 15, 145.92, 0.98},
		{"Gyro Noise", 16.01, 20.67, 10, 156.43, 0.52},
		{"Gyro Random", 16.75, 16.36, 2.5, 169.28, 0.47},
		{"Gyro Max", 16.32, 14.13, 2.5, 135.50, 0.44},
		{"Gyro Min", 19.73, 14.86, 0, 104.41, 0.47},
		{"IMU Max", 14.19, 17.34, 17.5, 212.30, 0.46},
		{"IMU Zeros", 18.17, 16.55, 2.5, 104.43, 0.52},
		{"IMU Noise", 21.19, 17.61, 2.5, 143.73, 0.48},
		{"IMU Random", 16, 15.03, 2.5, 104.66, 0.53},
		{"IMU Fixed Value", 15.67, 14.28, 2.5, 110.45, 0.53},
		{"IMU Min", 18.63, 17.61, 0, 155.08, 0.46},
		{"IMU Freeze", 18.03, 16.71, 0, 98.93, 0.46},
	}
}

// TableIV returns the paper's Table IV (failure analysis).
func TableIV() []FailureRow {
	return []FailureRow{
		{"Gold Run", 0, 0, 0},
		{"2 seconds", 80, 73, 27},
		{"5 seconds", 84.77, 73, 27},
		{"10 seconds", 88.58, 70, 30},
		{"30 seconds", 89.53, 34, 66},
		{"Acc", 73.22, 77.2, 22.8},
		{"Gyro", 87.5, 63.1, 36.9},
		{"IMU", 96.08, 47.2, 52.8},
	}
}

// Check is one shape assertion with its verdict.
type Check struct {
	Name     string
	Paper    string
	Measured string
	Holds    bool
}

// Compare evaluates the paper's headline shape properties against
// measured campaign results and returns the checks plus a pass count.
func Compare(results []core.CaseResult) []Check {
	var checks []Check
	add := func(name, paper, measured string, holds bool) {
		checks = append(checks, Check{Name: name, Paper: paper, Measured: measured, Holds: holds})
	}

	gold := core.GoldStats(results)
	byDur := core.ByDuration(results)
	byFault := core.ByFault(results)
	byComp := core.ByComponent(results)

	// Gold reference: perfect completion, zero violations.
	add("gold runs complete with zero violations",
		"100% completed, 0 violations",
		fmt.Sprintf("%.1f%% completed, %.2f/%.2f violations", gold.CompletedPct, gold.InnerViolations, gold.OuterViolations),
		mathx.ApproxEqual(gold.CompletedPct, 100, 1e-9) &&
			mathx.ApproxEqual(gold.InnerViolations, 0, 1e-9) &&
			mathx.ApproxEqual(gold.OuterViolations, 0, 1e-9))

	// Completion declines monotonically with duration.
	if len(byDur) == 4 {
		monotone := true
		for i := 1; i < len(byDur); i++ {
			if byDur[i].CompletedPct > byDur[i-1].CompletedPct+1e-9 {
				monotone = false
			}
		}
		add("completion declines with injection duration",
			"20 > 15.23 > 11.42 > 10.47 %",
			fmt.Sprintf("%.1f > %.1f > %.1f > %.1f %%",
				byDur[0].CompletedPct, byDur[1].CompletedPct, byDur[2].CompletedPct, byDur[3].CompletedPct),
			monotone)

		// Even 2-second faults fail the large majority of missions.
		add("2-second faults already fail most missions",
			"80% failed at 2 s",
			fmt.Sprintf("%.1f%% failed at 2 s", byDur[0].FailedPct),
			byDur[0].FailedPct >= 60)

		// Failsafe share grows with duration.
		add("failsafe share grows with duration",
			"27% at 2 s -> 66% at 30 s",
			fmt.Sprintf("%.1f%% at 2 s -> %.1f%% at 30 s", byDur[0].FailsafePct, byDur[3].FailsafePct),
			byDur[3].FailsafePct > byDur[0].FailsafePct)

		// Violations grow with duration (first vs last row). This check is
		// strict: in this simulator, flights under severe 30-second faults
		// terminate so quickly that few tracking instants remain to
		// violate, which can invert the paper's mild upward trend — a
		// known divergence recorded in EXPERIMENTS.md when it fails.
		add("inner violations grow with duration",
			"18.30 at 2 s -> 24.47 at 30 s",
			fmt.Sprintf("%.2f at 2 s -> %.2f at 30 s", byDur[0].InnerViolations, byDur[3].InnerViolations),
			byDur[3].InnerViolations >= byDur[0].InnerViolations)
	}

	// Component severity ordering: Acc < Gyro, Acc < IMU.
	if len(byComp) == 3 {
		acc, gyro, imu := byComp[0], byComp[1], byComp[2]
		add("component failure ordering Acc < Gyro",
			"73.22% < 87.5%",
			fmt.Sprintf("%.1f%% vs %.1f%%", acc.FailedPct, gyro.FailedPct),
			acc.FailedPct < gyro.FailedPct)
		add("component failure ordering Acc < IMU",
			"73.22% < 96.08%",
			fmt.Sprintf("%.1f%% vs %.1f%%", acc.FailedPct, imu.FailedPct),
			acc.FailedPct < imu.FailedPct)
		add("IMU faults are near-total mission killers",
			"96.08% failed",
			fmt.Sprintf("%.1f%% failed", imu.FailedPct),
			imu.FailedPct >= 85)
	}

	// Within accelerometer faults: Zeros/Noise/Freeze survivable,
	// Fixed/Min/Max near-total failure, matching the paper's surprise
	// that "Zeros were better handled than the Min and Max values".
	get := func(label string) (core.GroupStats, bool) { return core.Find(byFault, label) }
	if zeros, ok1 := get("Acc Zeros"); ok1 {
		if minRow, ok2 := get("Acc Min"); ok2 {
			add("Acc Zeros handled better than Acc Min",
				"67.5% vs 5%",
				fmt.Sprintf("%.1f%% vs %.1f%%", zeros.CompletedPct, minRow.CompletedPct),
				zeros.CompletedPct > minRow.CompletedPct+20)
		}
		if maxRow, ok2 := get("Acc Max"); ok2 {
			add("Acc Zeros handled better than Acc Max",
				"67.5% vs 2.5%",
				fmt.Sprintf("%.1f%% vs %.1f%%", zeros.CompletedPct, maxRow.CompletedPct),
				zeros.CompletedPct > maxRow.CompletedPct+20)
		}
	}
	if noise, ok := get("Acc Noise"); ok {
		if fixed, ok2 := get("Acc Fixed Value"); ok2 {
			add("Acc Noise survivable, Acc Fixed fatal",
				"60% vs 2.5%",
				fmt.Sprintf("%.1f%% vs %.1f%%", noise.CompletedPct, fixed.CompletedPct),
				noise.CompletedPct > 40 && fixed.CompletedPct < 20)
		}
	}
	// Gyro faults: uniformly severe; Min at 0%.
	if gmin, ok := get("Gyro Min"); ok {
		add("Gyro Min never completes",
			"0%",
			fmt.Sprintf("%.1f%%", gmin.CompletedPct),
			mathx.ApproxEqual(gmin.CompletedPct, 0, 1e-9))
	}
	// IMU Min and Freeze: total failure even at 2 s.
	for _, label := range []string{"IMU Min", "IMU Freeze"} {
		if row, ok := get(label); ok {
			add(label+" is a complete mission failure",
				"0%",
				fmt.Sprintf("%.1f%%", row.CompletedPct),
				mathx.ApproxEqual(row.CompletedPct, 0, 1e-9))
		}
	}
	// Failed-run mean durations: severe faults end flights early.
	if len(byDur) == 4 && gold.DurationSec > 0 {
		add("faulty flights are far shorter than gold",
			"gold 491 s vs faulty means 146-189 s",
			fmt.Sprintf("gold %.0f s vs faulty means %.0f-%.0f s", gold.DurationSec, minDuration(byDur), maxDuration(byDur)),
			maxDuration(byDur) < gold.DurationSec*0.6)
	}
	return checks
}

func minDuration(rows []core.GroupStats) float64 {
	m := rows[0].DurationSec
	for _, r := range rows[1:] {
		if r.DurationSec < m {
			m = r.DurationSec
		}
	}
	return m
}

func maxDuration(rows []core.GroupStats) float64 {
	m := rows[0].DurationSec
	for _, r := range rows[1:] {
		if r.DurationSec > m {
			m = r.DurationSec
		}
	}
	return m
}

// Summary is the one-line verdict over a set of shape checks,
// "paper shape checks: N/M hold".
func Summary(checks []Check) string {
	held := 0
	for _, c := range checks {
		if c.Holds {
			held++
		}
	}
	return fmt.Sprintf("paper shape checks: %d/%d hold", held, len(checks))
}

// render writes the comparison as a readable report, the summary first.
func render(checks []Check) string {
	var b strings.Builder
	b.WriteString(Summary(checks))
	b.WriteString("\n\n")
	for _, c := range checks {
		mark := "PASS"
		if !c.Holds {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s\n       paper:    %s\n       measured: %s\n", mark, c.Name, c.Paper, c.Measured)
	}
	return b.String()
}

// sideBySide renders measured rows next to the published rows for one
// metric table (matching rows by label).
func sideBySide(published []Row, measured []core.GroupStats) string {
	idx := map[string]core.GroupStats{}
	for _, m := range measured {
		idx[m.Label] = m
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s | %21s | %21s\n", "", "paper (compl / dur)", "measured (compl / dur)")
	for _, p := range published {
		m, exists := idx[p.Label]
		measCol := "        (missing)"
		if exists {
			measCol = fmt.Sprintf("%6.1f%% / %6.1fs", m.CompletedPct, m.DurationSec)
		}
		fmt.Fprintf(&b, "%-20s | %7.1f%% / %7.2fs | %s\n", p.Label, p.CompletedPct, p.DurationSec, measCol)
	}
	return b.String()
}
