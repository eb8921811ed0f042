package spec

import (
	"cmp"
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
// primitive, duration, start) never match gold cases, and a field that
// does not parse matches no case.
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
	// JSON cannot tell "start_sec": 0 from an absent field, so a zero
	// start or duration always means any; ParseSelector rejects an
	// explicit start=0 or duration=0 for that reason.
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
	m := s.compile()
	return m.matches(c)
}

// ApplySelectors keeps the cases matched by any selector, preserving
// order. An empty selector list keeps everything.
func ApplySelectors(cases []core.Case, sels []Selector) []core.Case {
	if len(sels) == 0 {
		return cases
	}
	ms := compileSelectors(sels)
	out := make([]core.Case, 0, len(cases))
	for _, c := range cases {
		for i := range ms {
			if ms[i].matches(c) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// AndSelectors returns one select list that keeps exactly the cases both
// lists keep, an empty list keeping every case: the pairwise conjunctions
// of their selectors, less the pairs whose equality terms conflict. Two
// different ID patterns cannot be joined into one glob and are an error,
// and so are two lists that no pair can satisfy (the empty result would
// keep everything). Both lists must be valid.
func AndSelectors(a, b []Selector) ([]Selector, error) {
	if len(a) == 0 || len(b) == 0 {
		return append(append([]Selector(nil), a...), b...), nil
	}
	var out []Selector
	for _, x := range a {
		for _, y := range b {
			both, ok, err := x.and(y)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, both)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("spec: the two select lists keep no case in common")
	}
	return out, nil
}

// and conjoins two selectors: the fields either sets, or false when both
// set one field to different values.
func (s Selector) and(o Selector) (Selector, bool, error) {
	if s.ID != "" && o.ID != "" && s.ID != o.ID {
		return s, false, fmt.Errorf("spec: cannot AND the id patterns %q and %q", s.ID, o.ID)
	}
	a, b := s.compile(), o.compile()
	if (a.mission != 0 && b.mission != 0 && a.mission != b.mission) ||
		(a.gold != anyCase && b.gold != anyCase && a.gold != b.gold) ||
		(a.hasFrame && b.hasFrame && a.frame != b.frame) ||
		(a.hasTarget && b.hasTarget && a.target != b.target) ||
		(a.hasPrim && b.hasPrim && a.prim != b.prim) ||
		(a.hasDur && b.hasDur && a.dur != b.dur) ||
		(a.hasStart && b.hasStart && a.start != b.start) {
		return s, false, nil
	}
	return Selector{
		ID:          cmp.Or(s.ID, o.ID),
		Mission:     cmp.Or(s.Mission, o.Mission),
		Target:      cmp.Or(s.Target, o.Target),
		Primitive:   cmp.Or(s.Primitive, o.Primitive),
		DurationSec: cmp.Or(s.DurationSec, o.DurationSec),
		StartSec:    cmp.Or(s.StartSec, o.StartSec),
		Gold:        cmp.Or(s.Gold, o.Gold),
		Airframe:    cmp.Or(s.Airframe, o.Airframe),
	}, true, nil
}

// goldFilter is a selector's gold field: unset, gold only or faulty only.
type goldFilter uint8

const (
	anyCase goldFilter = iota
	goldOnly
	faultyOnly
)

// matcher is a Selector parsed once: each set field resolved to the typed
// value a case carries, so matching compares values and parses nothing.
// Its per-field checks are what Compile narrows by as the matrix expands,
// and matches chains them for a finished case.
type matcher struct {
	// never marks a set field that does not parse: the selector matches
	// no case.
	never bool
	// id is the exact ID or path.Match glob; "" matches any.
	id string
	// mission 0 matches any.
	mission int
	gold    goldFilter
	// injection is set when any injection field is; such a selector
	// never matches a gold case.
	injection bool

	hasFrame, hasTarget, hasPrim, hasDur, hasStart bool

	frame      physics.Airframe
	target     faultinject.Target
	prim       faultinject.Primitive
	dur, start time.Duration
}

// compile parses the selector's fields once.
func (s Selector) compile() matcher {
	m := matcher{id: s.ID, mission: s.Mission}
	if s.Gold != nil {
		m.gold = faultyOnly
		if *s.Gold {
			m.gold = goldOnly
		}
	}
	var err error
	if s.Airframe != "" {
		m.hasFrame = true
		m.frame, err = physics.ParseAirframe(s.Airframe)
		m.never = m.never || err != nil
	}
	if s.Target != "" {
		m.hasTarget = true
		m.target, err = faultinject.ParseTarget(s.Target)
		m.never = m.never || err != nil
	}
	if s.Primitive != "" {
		m.hasPrim = true
		m.prim, err = faultinject.ParsePrimitive(s.Primitive)
		m.never = m.never || err != nil
	}
	//lint:allow floatcmp zero-value detection of an unset selector field, never a computed value
	if s.DurationSec != 0 {
		m.hasDur = true
		m.dur, err = durationSec(s.DurationSec)
		m.never = m.never || err != nil
	}
	//lint:allow floatcmp zero-value detection of an unset selector field, never a computed value
	if s.StartSec != 0 {
		m.hasStart = true
		m.start, err = startSec(s.StartSec)
		m.never = m.never || err != nil
	}
	m.injection = m.hasTarget || m.hasPrim || m.hasDur || m.hasStart
	return m
}

// compileSelectors compiles a select list, dropping the selectors that
// can never match: OR-ing them in keeps nothing more.
func compileSelectors(sels []Selector) []matcher {
	out := make([]matcher, 0, len(sels))
	for _, s := range sels {
		if m := s.compile(); !m.never {
			out = append(out, m)
		}
	}
	return out
}

func (m *matcher) missionOK(id int) bool { return m.mission == 0 || m.mission == id }

func (m *matcher) frameOK(f physics.Airframe) bool { return !m.hasFrame || m.frame == f }

// goldOK reports whether the selector's fields admit a gold case.
func (m *matcher) goldOK() bool { return m.gold != faultyOnly && !m.injection }

// targetOK reports whether the selector admits faulty cases of target t.
func (m *matcher) targetOK(t faultinject.Target) bool {
	return m.gold != goldOnly && (!m.hasTarget || m.target == t)
}

// faultOK reports whether the selector admits faulty cases of target t
// and primitive p.
func (m *matcher) faultOK(t faultinject.Target, p faultinject.Primitive) bool {
	return m.targetOK(t) && (!m.hasPrim || m.prim == p)
}

func (m *matcher) windowOK(dur, start time.Duration) bool {
	return (!m.hasDur || m.dur == dur) && (!m.hasStart || m.start == start)
}

// idOK matches the case ID exactly or as a glob; a malformed glob (only
// an unvalidated selector carries one) matches exactly.
func (m *matcher) idOK(id string) bool {
	if m.id == "" {
		return true
	}
	ok, _ := path.Match(m.id, id)
	return ok || m.id == id
}

// matches reports whether a finished case satisfies every set field. An
// empty Case.Airframe counts as quad-x; one that does not parse matches
// no airframe selector.
func (m *matcher) matches(c core.Case) bool {
	if m.never || !m.missionOK(c.MissionID) {
		return false
	}
	if m.hasFrame {
		have := physics.QuadX
		if c.Airframe != "" {
			f, err := physics.ParseAirframe(c.Airframe)
			if err != nil {
				return false
			}
			have = f
		}
		if !m.frameOK(have) {
			return false
		}
	}
	if inj := c.Injection; inj == nil {
		if !m.goldOK() {
			return false
		}
	} else if !m.faultOK(inj.Target, inj.Primitive) || !m.windowOK(inj.Duration, inj.Start) {
		return false
	}
	return m.idOK(c.ID)
}

// narrow returns, in dst's storage, the matchers of live that pass.
func narrow(dst, live []*matcher, pass func(*matcher) bool) []*matcher {
	dst = dst[:0]
	for _, m := range live {
		if pass(m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// pick decides a cell that passed every level above: it is kept when a
// live matcher passes its remaining fields and, if the matcher has an ID
// pattern, its ID. The ID is built at most once, when first needed, and
// is returned for a kept cell.
func pick(live []*matcher, pass func(*matcher) bool, buildID func() string) (string, bool) {
	id := ""
	for _, m := range live {
		if !pass(m) {
			continue
		}
		if id == "" {
			id = buildID()
		}
		if m.idOK(id) {
			return id, true
		}
	}
	return "", false
}

// ParseSelector parses the CLI selector syntax: comma-separated
// key=value terms, ANDed. Keys: id (exact or glob), mission, target,
// primitive, duration (e.g. "10s" or "10"), start, gold (true/false),
// airframe. A bare term with no '=' is shorthand for id=<term>. A zero
// duration or start is rejected: 0 means any, so start=0 would keep every
// start rather than the injections at 0 s.
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
			//lint:allow floatcmp an explicit zero typed by the user, never a computed value
			if v == 0 {
				return s, fmt.Errorf("spec: bad duration %q: 0 means any duration; omit the key instead", value)
			}
			s.DurationSec = v
		case "start":
			v, err := parseSeconds(value)
			if err != nil {
				return s, fmt.Errorf("spec: bad start %q: %w", value, err)
			}
			//lint:allow floatcmp an explicit zero typed by the user, never a computed value
			if v == 0 {
				return s, fmt.Errorf("spec: bad start %q: 0 means any start; omit the key instead", value)
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
