package spec

import (
	"fmt"
	"path"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"uavres/internal/core"
	"uavres/internal/faultinject"
	"uavres/internal/physics"
)

// Selector keeps a subset of compiled cases. Every set field must match
// (AND within a selector); a spec's Select list keeps a case when any
// selector matches (OR across selectors). Injection fields (target,
// primitive, duration, start) never match gold cases.
type Selector struct {
	// ID matches the case identifier, exactly or as a glob
	// (path.Match syntax: "m04-*", "*freeze*").
	ID string `json:"id,omitempty"`
	// Mission matches the mission ID (0 = any).
	Mission int `json:"mission,omitempty"`
	// Target and Primitive are parsed like matrix axes.
	Target    string `json:"target,omitempty"`
	Primitive string `json:"primitive,omitempty"`
	// DurationSec and StartSec match the injection window (0 = any).
	DurationSec float64 `json:"duration_sec,omitempty"`
	StartSec    float64 `json:"start_sec,omitempty"`
	// Gold, when set, keeps only gold (true) or only faulty (false)
	// cases.
	Gold *bool `json:"gold,omitempty"`
	// Airframe matches the case's rotor layout ("quad", "hexa-x", ...);
	// an empty Case.Airframe counts as quad-x.
	Airframe string `json:"airframe,omitempty"`
}

// Validate rejects unparseable field values, malformed or non-UTF-8 globs
// and negative mission IDs.
func (s Selector) Validate() error {
	if s.Mission < 0 {
		return fmt.Errorf("bad mission %d: mission IDs are positive (0 = any)", s.Mission)
	}
	if s.ID != "" {
		// JSON cannot carry invalid UTF-8, and no case ID contains it.
		if !utf8.ValidString(s.ID) {
			return fmt.Errorf("id pattern %q is not valid UTF-8", s.ID)
		}
		if _, err := path.Match(s.ID, "probe"); err != nil {
			return fmt.Errorf("bad id pattern %q: %w", s.ID, err)
		}
	}
	if s.Target != "" {
		if _, err := faultinject.ParseTarget(s.Target); err != nil {
			return err
		}
	}
	if s.Primitive != "" {
		if _, err := faultinject.ParsePrimitive(s.Primitive); err != nil {
			return err
		}
	}
	if s.Airframe != "" {
		if _, err := physics.ParseAirframe(s.Airframe); err != nil {
			return err
		}
	}
	//lint:allow floatcmp zero-value detection of an unset selector field, never a computed value
	if s.DurationSec != 0 {
		if _, err := durationSec(s.DurationSec); err != nil {
			return err
		}
	}
	if _, err := startSec(s.StartSec); err != nil {
		return err
	}
	if s == (Selector{}) {
		return fmt.Errorf("empty selector matches nothing")
	}
	return nil
}

// Matches reports whether the case satisfies every set field.
func (s Selector) Matches(c core.Case) bool {
	if s.ID != "" {
		if ok, _ := path.Match(s.ID, c.ID); !ok && s.ID != c.ID {
			return false
		}
	}
	if s.Mission != 0 && c.MissionID != s.Mission {
		return false
	}
	if s.Gold != nil && *s.Gold != (c.Injection == nil) {
		return false
	}
	if s.Airframe != "" {
		want, err := physics.ParseAirframe(s.Airframe)
		if err != nil {
			return false
		}
		have := physics.QuadX
		if c.Airframe != "" {
			if have, err = physics.ParseAirframe(c.Airframe); err != nil {
				return false
			}
		}
		if have != want {
			return false
		}
	}
	//lint:allow floatcmp zero-value detection of an unset selector field, never a computed value
	injectionFieldSet := s.Target != "" || s.Primitive != "" || s.DurationSec != 0 || s.StartSec != 0
	if c.Injection == nil {
		return !injectionFieldSet
	}
	if s.Target != "" {
		t, err := faultinject.ParseTarget(s.Target)
		if err != nil || c.Injection.Target != t {
			return false
		}
	}
	if s.Primitive != "" {
		p, err := faultinject.ParsePrimitive(s.Primitive)
		if err != nil || c.Injection.Primitive != p {
			return false
		}
	}
	//lint:allow floatcmp zero-value detection of an unset selector field, never a computed value
	if s.DurationSec != 0 {
		if d, err := durationSec(s.DurationSec); err != nil || c.Injection.Duration != d {
			return false
		}
	}
	//lint:allow floatcmp zero-value detection of an unset selector field, never a computed value
	if s.StartSec != 0 {
		if st, err := startSec(s.StartSec); err != nil || c.Injection.Start != st {
			return false
		}
	}
	return true
}

// ApplySelectors keeps the cases matched by any selector, preserving
// order. An empty selector list keeps everything.
func ApplySelectors(cases []core.Case, sels []Selector) []core.Case {
	if len(sels) == 0 {
		return cases
	}
	out := make([]core.Case, 0, len(cases))
	for _, c := range cases {
		for _, s := range sels {
			if s.Matches(c) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// ParseSelector parses the CLI selector syntax: comma-separated
// key=value terms, ANDed. Keys: id (exact or glob), mission, target,
// primitive, duration (e.g. "10s" or "10"), start, gold (true/false).
// A bare term with no '=' is shorthand for id=<term>.
func ParseSelector(expr string) (Selector, error) {
	var s Selector
	for _, term := range strings.Split(expr, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, value, found := strings.Cut(term, "=")
		if !found {
			s.ID = term
			continue
		}
		key = strings.ToLower(strings.TrimSpace(key))
		value = strings.TrimSpace(value)
		switch key {
		case "id":
			s.ID = value
		case "mission", "m":
			id, err := strconv.Atoi(strings.TrimPrefix(value, "m"))
			if err != nil {
				return s, fmt.Errorf("spec: bad mission %q: %w", value, err)
			}
			s.Mission = id
		case "target":
			s.Target = value
		case "primitive", "prim":
			s.Primitive = value
		case "duration", "dur":
			v, err := parseSeconds(value)
			if err != nil {
				return s, fmt.Errorf("spec: bad duration %q: %w", value, err)
			}
			s.DurationSec = v
		case "start":
			v, err := parseSeconds(value)
			if err != nil {
				return s, fmt.Errorf("spec: bad start %q: %w", value, err)
			}
			s.StartSec = v
		case "gold":
			b, err := strconv.ParseBool(value)
			if err != nil {
				return s, fmt.Errorf("spec: bad gold %q: %w", value, err)
			}
			s.Gold = &b
		case "airframe", "frame":
			s.Airframe = value
		default:
			return s, fmt.Errorf("spec: unknown selector key %q (want id, mission, target, primitive, duration, start, gold, airframe)", key)
		}
	}
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("spec: %w", err)
	}
	return s, nil
}

// parseSeconds accepts either a bare number of seconds ("10", "2.5") or
// a Go duration ("10s", "1m30s").
func parseSeconds(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}
