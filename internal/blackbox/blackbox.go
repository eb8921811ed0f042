// Package blackbox writes and reads the one on-disk flight record: a
// versioned JSON dump per case. A dump is the per-case evidence that the
// aggregate outcome tables flatten away — the last seconds of trajectory,
// the EKF innovation/gate-reject statistics, and the drained trace ring.
// cmd/campaign writes one per crash/violation case, so a failing paper
// case is an inspectable artifact, not just a row in campaign_results;
// cmd/uavsim writes one for its single flight, with the full trajectory
// behind the paper's Figs. 3-5. cmd/replay reads both.
package blackbox

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/sim"
)

// Version is the dump format version; Load rejects files from the future.
const Version = 1

// Dump is one case's black-box record. It embeds the full Diagnostics
// block (trajectory tail, trace events, EKF health statistics) plus
// enough case identity to re-run the exact flight, and the full
// trajectory when the flight recorded one.
type Dump struct {
	Version   int    `json:"version"`
	CaseID    string `json:"case_id"`
	MissionID int    `json:"mission_id"`
	Seed      int64  `json:"seed"`
	SpecHash  string `json:"spec_hash,omitempty"`

	Injection *faultinject.Injection `json:"injection,omitempty"`

	Outcome           string  `json:"outcome"`
	CrashReason       string  `json:"crash_reason,omitempty"`
	FailsafeCause     string  `json:"failsafe_cause,omitempty"`
	FlightDurationSec float64 `json:"flight_duration_sec"`
	DistanceKm        float64 `json:"distance_km"`
	InnerViolations   int     `json:"inner_violations"`
	OuterViolations   int     `json:"outer_violations"`
	WaypointsReached  int     `json:"waypoints_reached"`

	Diagnostics *sim.Diagnostics `json:"diagnostics,omitempty"`

	// Trajectory is the whole flight at 1 Hz, present only when the run
	// set sim.Config.RecordTrajectory (cmd/uavsim does; campaigns do not,
	// so their dumps carry the tail alone).
	Trajectory []sim.TrajPoint `json:"trajectory,omitempty"`
}

// ShouldDump reports whether a finished case warrants a black-box file:
// a crash outcome, or any outer-bubble (containment) violation. Infra
// errors carry no flight to record; completed, contained flights are not
// failures.
func ShouldDump(res core.CaseResult) bool {
	if res.Err != "" {
		return false
	}
	return res.Result.Outcome == sim.OutcomeCrash || res.Result.OuterViolations > 0
}

// FromCase builds the dump for a finished case. Call it from
// Runner.OnResult, which still sees the full result — the runner strips
// Diagnostics from what it retains afterwards.
func FromCase(res core.CaseResult, specHash string) Dump {
	r := res.Result
	return Dump{
		Version:   Version,
		CaseID:    res.Case.ID,
		MissionID: res.Case.MissionID,
		Seed:      res.Case.Seed,
		SpecHash:  specHash,

		Injection: res.Case.Injection,

		Outcome:           r.Outcome.String(),
		CrashReason:       r.CrashReason,
		FailsafeCause:     r.FailsafeCause,
		FlightDurationSec: r.FlightDurationSec,
		DistanceKm:        r.DistanceKm,
		InnerViolations:   r.InnerViolations,
		OuterViolations:   r.OuterViolations,
		WaypointsReached:  r.WaypointsReached,

		Diagnostics: r.Diagnostics,
		Trajectory:  r.Trajectory,
	}
}

// Filename is the dump's file name within its directory: the case ID
// (already a filesystem-safe slug) plus the black-box extension.
func (d Dump) Filename() string {
	id := d.CaseID
	if id == "" {
		id = "case"
	}
	// Case IDs are slugs by construction; scrub separators anyway so a
	// hostile results file cannot escape the dump directory.
	id = strings.Map(func(r rune) rune {
		if r == '/' || r == '\\' || r == ':' {
			return '_'
		}
		return r
	}, id)
	return id + ".blackbox.json"
}

// Write persists the dump under dir as d.Filename() and returns the file
// path.
func Write(dir string, d Dump) (string, error) {
	path := filepath.Join(dir, d.Filename())
	return path, WriteFile(path, d)
}

// WriteFile persists the dump at path, creating its directory if missing.
func WriteFile(path string, d Dump) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return fmt.Errorf("blackbox: marshal %s: %w", d.CaseID, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	return nil
}

// Load reads and validates one dump file.
func Load(path string) (Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Dump{}, fmt.Errorf("blackbox: %w", err)
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return Dump{}, fmt.Errorf("blackbox: parse %s: %w", path, err)
	}
	if d.Version < 1 || d.Version > Version {
		return Dump{}, fmt.Errorf("blackbox: %s: unsupported version %d", path, d.Version)
	}
	if d.CaseID == "" {
		return Dump{}, fmt.Errorf("blackbox: %s: missing case_id", path)
	}
	if d.Outcome == "" {
		return Dump{}, fmt.Errorf("blackbox: %s: missing outcome", path)
	}
	return d, nil
}
