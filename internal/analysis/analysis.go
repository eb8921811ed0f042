// Package analysis provides secondary breakdowns of campaign results that
// the paper discusses but does not tabulate: per-mission and per-speed
// sensitivity (the scenario deliberately mixes 5-25 km/h drones), failure
// latency distributions, and failsafe-cause composition. A Markdown
// report renderer packages everything for offline reading.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"uavres/internal/core"
	"uavres/internal/mathx"
	"uavres/internal/mission"
	"uavres/internal/sim"
)

// MissionBreakdown aggregates faulty-run outcomes for one mission.
type MissionBreakdown struct {
	MissionID    int
	Name         string
	SpeedKmh     float64
	HasTurns     bool
	N            int
	CompletedPct float64
	CrashPct     float64 // of all faulty runs
	MeanInner    float64
	MeanOuter    float64
}

// ByMission groups faulty results per mission (the campaign injects 84
// faults into each). The scenario must be supplied to label speeds/turns.
func ByMission(results []core.CaseResult, missions []mission.Mission) []MissionBreakdown {
	info := map[int]mission.Mission{}
	for _, m := range missions {
		info[m.ID] = m
	}
	type acc struct {
		n, completed, crashed int
		inner, outer          float64
	}
	agg := map[int]*acc{}
	for _, cr := range results {
		if cr.Err != "" || cr.Case.Injection == nil {
			continue
		}
		a := agg[cr.Case.MissionID]
		if a == nil {
			a = &acc{}
			agg[cr.Case.MissionID] = a
		}
		a.n++
		if cr.Result.Outcome == sim.OutcomeCompleted {
			a.completed++
		}
		if cr.Result.Outcome == sim.OutcomeCrash {
			a.crashed++
		}
		a.inner += float64(cr.Result.InnerViolations)
		a.outer += float64(cr.Result.OuterViolations)
	}
	ids := make([]int, 0, len(agg))
	for id := range agg {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]MissionBreakdown, 0, len(ids))
	for _, id := range ids {
		a := agg[id]
		b := MissionBreakdown{
			MissionID: id, N: a.n,
			CompletedPct: 100 * float64(a.completed) / float64(a.n),
			CrashPct:     100 * float64(a.crashed) / float64(a.n),
			MeanInner:    a.inner / float64(a.n),
			MeanOuter:    a.outer / float64(a.n),
		}
		if m, exists := info[id]; exists {
			b.Name = m.Name
			b.SpeedKmh = math.Round(m.CruiseSpeedMS * 3.6)
			b.HasTurns = m.HasTurns
		}
		out = append(out, b)
	}
	return out
}

// SpeedBreakdown aggregates by drone speed class.
type SpeedBreakdown struct {
	SpeedKmh     float64
	Missions     int
	N            int
	CompletedPct float64
	MeanInner    float64
}

// BySpeed groups faulty results by the drone's cruise speed class.
func BySpeed(results []core.CaseResult, missions []mission.Mission) []SpeedBreakdown {
	byMission := ByMission(results, missions)
	type acc struct {
		missions, n int
		completed   float64 // weighted by runs
		inner       float64
	}
	agg := map[float64]*acc{}
	for _, b := range byMission {
		a := agg[b.SpeedKmh]
		if a == nil {
			a = &acc{}
			agg[b.SpeedKmh] = a
		}
		a.missions++
		a.n += b.N
		a.completed += b.CompletedPct / 100 * float64(b.N)
		a.inner += b.MeanInner * float64(b.N)
	}
	speeds := make([]float64, 0, len(agg))
	for s := range agg {
		speeds = append(speeds, s)
	}
	sort.Float64s(speeds)
	out := make([]SpeedBreakdown, 0, len(speeds))
	for _, s := range speeds {
		a := agg[s]
		out = append(out, SpeedBreakdown{
			SpeedKmh: s, Missions: a.missions, N: a.n,
			CompletedPct: 100 * a.completed / float64(a.n),
			MeanInner:    a.inner / float64(a.n),
		})
	}
	return out
}

// LatencyStats summarizes fault-onset-to-failure latency for failed runs.
type LatencyStats struct {
	N      int
	MeanS  float64
	P50S   float64
	P90S   float64
	MaxS   float64
	OnsetS float64
}

// FailureLatency computes time from injection start to mission end across
// failed faulty runs.
func FailureLatency(results []core.CaseResult) LatencyStats {
	var lat []float64
	onset := 0.0
	for _, cr := range results {
		if cr.Err != "" || cr.Case.Injection == nil {
			continue
		}
		if cr.Result.Outcome == sim.OutcomeCompleted {
			continue
		}
		start := cr.Case.Injection.Start.Seconds()
		onset = start
		if cr.Result.FlightDurationSec > start {
			lat = append(lat, cr.Result.FlightDurationSec-start)
		}
	}
	if len(lat) == 0 {
		return LatencyStats{}
	}
	var r mathx.Running
	for _, v := range lat {
		r.Add(v)
	}
	return LatencyStats{
		N:      len(lat),
		MeanS:  r.Mean(),
		P50S:   mathx.Percentile(lat, 50),
		P90S:   mathx.Percentile(lat, 90),
		MaxS:   r.Max(),
		OnsetS: onset,
	}
}

// CauseComposition counts failure causes across faulty runs.
func CauseComposition(results []core.CaseResult) map[string]int {
	out := map[string]int{}
	for _, cr := range results {
		if cr.Err != "" || cr.Case.Injection == nil {
			continue
		}
		switch cr.Result.Outcome {
		case sim.OutcomeCompleted:
			out["completed"]++
		case sim.OutcomeCrash:
			out["crash: "+cr.Result.CrashReason]++
		case sim.OutcomeFailsafe:
			out["failsafe: "+cr.Result.FailsafeCause]++
		default:
			out["timeout"]++
		}
	}
	return out
}

// RenderMarkdown builds the full secondary-analysis report.
func RenderMarkdown(results []core.CaseResult, missions []mission.Mission) string {
	var b strings.Builder
	b.WriteString("# Campaign secondary analysis\n\n")

	b.WriteString("## Per-mission sensitivity\n\n")
	b.WriteString("| Mission | Speed (km/h) | Turns | Runs | Completed % | Crash % | Inner (#) |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, m := range ByMission(results, missions) {
		turns := ""
		if m.HasTurns {
			turns = "yes"
		}
		fmt.Fprintf(&b, "| %d %s | %.0f | %s | %d | %.1f | %.1f | %.1f |\n",
			m.MissionID, m.Name, m.SpeedKmh, turns, m.N, m.CompletedPct, m.CrashPct, m.MeanInner)
	}

	b.WriteString("\n## Per-speed-class sensitivity\n\n")
	b.WriteString("| Speed (km/h) | Missions | Runs | Completed % | Inner (#) |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, s := range BySpeed(results, missions) {
		fmt.Fprintf(&b, "| %.0f | %d | %d | %.1f | %.1f |\n",
			s.SpeedKmh, s.Missions, s.N, s.CompletedPct, s.MeanInner)
	}

	lat := FailureLatency(results)
	b.WriteString("\n## Failure latency (onset to loss)\n\n")
	fmt.Fprintf(&b, "Failed runs: %d. Mean %.1f s, median %.1f s, p90 %.1f s, max %.1f s after the %.0f s injection mark.\n",
		lat.N, lat.MeanS, lat.P50S, lat.P90S, lat.MaxS, lat.OnsetS)

	b.WriteString("\n## Outcome composition\n\n")
	comp := CauseComposition(results)
	keys := make([]string, 0, len(comp))
	for k := range comp {
		keys = append(keys, k)
	}
	sort.Strings(keys) // ties in count keep name order
	sort.SliceStable(keys, func(i, j int) bool { return comp[keys[i]] > comp[keys[j]] })
	for _, k := range keys {
		fmt.Fprintf(&b, "- %s: %d\n", k, comp[k])
	}
	return b.String()
}
