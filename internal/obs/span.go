package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SpanID identifies a span within one Tracer. The zero value means "no
// span": it is a valid parent (the span becomes a root) and a valid
// argument to End/Annotate (a no-op), so instrumented code never needs
// to branch on whether tracing is enabled.
type SpanID int32

// Attr is one span attribute: a string or numeric key/value pair.
// Attributes are campaign-level metadata (case IDs, outcomes, batch
// widths) — small, bounded, and deterministic across runs.
type Attr struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// StrAttr builds a string attribute.
func StrAttr(k, v string) Attr { return Attr{Key: k, Str: v} }

// NumAttr builds a numeric attribute.
func NumAttr(k string, v float64) Attr { return Attr{Key: k, Num: v, IsNum: true} }

// BoolAttr builds a boolean attribute (serialized as "true"/"false" so
// attribute signatures stay plain strings).
func BoolAttr(k string, v bool) Attr {
	if v {
		return Attr{Key: k, Str: "true"}
	}
	return Attr{Key: k, Str: "false"}
}

// maxSpanAttrs caps attributes per span; extras are counted in
// DroppedAttrs rather than silently vanishing.
const maxSpanAttrs = 8

// spanRec is one span's storage. Records live in the tracer's flat
// slice; SpanID is the 1-based index into it.
type spanRec struct {
	name   string
	parent SpanID
	start  float64
	end    float64
	open   bool
	nattrs int32
	attrs  [maxSpanAttrs]Attr
}

// DefaultMaxSpans bounds a tracer's memory: far above any real campaign
// (the paper's 850 cases produce ~1000 spans) but a hard stop against a
// runaway instrumentation loop.
const DefaultMaxSpans = 1 << 20

// Tracer records hierarchical execution spans: campaign → mission
// prefix → lockstep batch → case. It is safe for concurrent use (the
// campaign runner starts and ends spans from every worker); Start and
// End are allocation-free once the span slice has capacity, so tracing
// a full campaign costs microseconds, not milliseconds.
//
// Time comes exclusively from the injected Clock — library code never
// reads the wall clock (see the walltime analyzer) — so span TREES are
// deterministic for a given campaign: identical runs differ only in
// timestamp values, never in span names, attributes, or structure.
// Export order is sorted by (name, attribute signature), not creation
// order, so worker scheduling cannot reorder the output.
//
// A nil *Tracer is valid and inert: every method no-ops (Start returns
// 0), which is how the runner runs untraced with zero overhead.
type Tracer struct {
	mu           sync.Mutex
	clock        Clock
	spans        []spanRec // guarded by mu
	max          int
	dropped      int64 // guarded by mu
	droppedAttrs int64 // guarded by mu
}

// NewTracer returns a tracer reading time from clock (Stopped when nil)
// with capacity preallocated for hint spans. Span count is capped at
// DefaultMaxSpans; spans started past the cap are counted in Dropped.
func NewTracer(clock Clock, hint int) *Tracer {
	if clock == nil {
		clock = Stopped()
	}
	if hint < 0 {
		hint = 0
	}
	if hint > DefaultMaxSpans {
		hint = DefaultMaxSpans
	}
	return &Tracer{clock: clock, spans: make([]spanRec, 0, hint), max: DefaultMaxSpans}
}

// Start opens a span under parent (0 = root) and returns its ID. name
// must be a static or pre-built string. Attributes beyond the per-span
// cap are dropped and counted. Start on a nil tracer returns 0.
func (t *Tracer) Start(name string, parent SpanID, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return 0
	}
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: t.clock(), open: true})
	id := SpanID(len(t.spans))
	t.appendAttrsLocked(id, attrs)
	t.mu.Unlock()
	return id
}

// appendAttrsLocked copies attrs into the record, counting overflow.
func (t *Tracer) appendAttrsLocked(id SpanID, attrs []Attr) {
	rec := &t.spans[id-1]
	for _, a := range attrs {
		if int(rec.nattrs) >= maxSpanAttrs {
			t.droppedAttrs++
			continue
		}
		rec.attrs[rec.nattrs] = a
		rec.nattrs++
	}
}

// End closes the span at the clock's current time. Ending an already
// ended span (or span 0, or a nil tracer) is a no-op, so error paths can
// End unconditionally.
func (t *Tracer) End(id SpanID) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	if int(id) <= len(t.spans) && t.spans[id-1].open {
		t.spans[id-1].end = t.clock()
		t.spans[id-1].open = false
	}
	t.mu.Unlock()
}

// Annotate adds attributes to an existing span (e.g. a case's outcome,
// known only after it ends). No-op on a nil tracer or span 0.
func (t *Tracer) Annotate(id SpanID, attrs ...Attr) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	if int(id) <= len(t.spans) {
		t.appendAttrsLocked(id, attrs)
	}
	t.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many Start calls were refused at the span cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards every recorded span (capacity is kept). It exists for
// long-lived processes that trace campaign after campaign.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.droppedAttrs = 0
	t.mu.Unlock()
}

// SpanView is one span's exported state.
type SpanView struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  float64
	End    float64
	Open   bool
	Attrs  []Attr
}

// Spans returns a deep copy of every recorded span in creation order.
func (t *Tracer) Spans() []SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanView, len(t.spans))
	for i := range t.spans {
		rec := &t.spans[i]
		out[i] = SpanView{
			ID:     SpanID(i + 1),
			Parent: rec.parent,
			Name:   rec.name,
			Start:  rec.start,
			End:    rec.end,
			Open:   rec.open,
			Attrs:  append([]Attr(nil), rec.attrs[:rec.nattrs]...),
		}
	}
	return out
}

// sortKey is the deterministic ordering key for export: the span name
// plus its attribute signature in insertion order. Instrumentation gives
// sibling spans distinguishing attributes (case IDs, batch first-case,
// prefix mission/seed), so the key orders siblings independently of the
// scheduler-dependent creation order.
func (v *SpanView) sortKey() string {
	var sb strings.Builder
	sb.WriteString(v.Name)
	for _, a := range v.Attrs {
		sb.WriteByte(0x1f)
		sb.WriteString(a.Key)
		sb.WriteByte('=')
		if a.IsNum {
			sb.WriteString(strconv.FormatFloat(a.Num, 'g', -1, 64))
		} else {
			sb.WriteString(a.Str)
		}
	}
	return sb.String()
}

// traceEvent is one Chrome/Perfetto trace-event object ("X" = complete
// event with explicit duration; ts/dur are microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceEventDoc is the exported document shape.
type traceEventDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// WriteTraceEvents exports the recorded spans as Chrome/Perfetto
// trace-event JSON (load it in a chrome://tracing or ui.perfetto.dev
// session). Events are emitted in a deterministic depth-first order —
// parents before children, siblings sorted by (name, attributes) — so
// two runs of the same campaign produce byte-identical documents apart
// from the ts/dur timestamp values. Each top-level subtree under the
// root is assigned its own tid lane so concurrent cases render side by
// side instead of overlapping.
func (t *Tracer) WriteTraceEvents(w io.Writer) error {
	spans := t.Spans()

	// Index children; spans with a missing or out-of-range parent become
	// roots so a truncated trace still exports.
	children := make(map[SpanID][]int, len(spans))
	for i := range spans {
		p := spans[i].Parent
		if int(p) < 0 || int(p) > len(spans) {
			p = 0
		}
		children[p] = append(children[p], i)
	}
	for _, idxs := range children {
		sort.Slice(idxs, func(a, b int) bool {
			ka, kb := spans[idxs[a]].sortKey(), spans[idxs[b]].sortKey()
			if ka != kb {
				return ka < kb
			}
			return idxs[a] < idxs[b] // identical-content siblings: creation order
		})
	}

	events := make([]traceEvent, 0, len(spans))
	lanes := 0
	var emit func(idx, depth, lane int)
	emit = func(idx, depth, lane int) {
		v := &spans[idx]
		end := v.End
		args := make(map[string]any, len(v.Attrs)+1)
		for _, a := range v.Attrs {
			if a.IsNum {
				args[a.Key] = a.Num
			} else {
				args[a.Key] = a.Str
			}
		}
		if v.Open {
			end = v.Start
			args["open"] = "true"
		}
		events = append(events, traceEvent{
			Name: v.Name,
			Cat:  "campaign",
			Ph:   "X",
			Ts:   v.Start * 1e6,
			Dur:  (end - v.Start) * 1e6,
			Pid:  1,
			Tid:  lane,
			Args: args,
		})
		for _, c := range children[v.ID] {
			childLane := lane
			if depth == 1 {
				// Children of a root span each open their own lane so
				// concurrently running subtrees do not overlap on one track.
				lanes++
				childLane = lanes
			}
			emit(c, depth+1, childLane)
		}
	}
	for _, r := range children[0] {
		lanes++
		emit(r, 1, lanes)
	}

	data, err := json.MarshalIndent(traceEventDoc{DisplayTimeUnit: "ms", TraceEvents: events}, "", " ")
	if err != nil {
		return fmt.Errorf("obs: marshal trace events: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// TraceSignature reduces an exported trace-event document to its
// timestamp-free form: ts and dur are zeroed and the document is
// re-marshaled compactly. Two campaign runs are "identical modulo wall
// timestamps" exactly when their signatures match — the determinism
// tests and ci.sh compare this, never the raw bytes.
func TraceSignature(data []byte) (string, error) {
	var doc traceEventDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("obs: trace signature: %w", err)
	}
	for i := range doc.TraceEvents {
		doc.TraceEvents[i].Ts = 0
		doc.TraceEvents[i].Dur = 0
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("obs: trace signature: %w", err)
	}
	return string(out), nil
}

// ValidateTraceEventJSON checks that data is a well-formed trace-event
// document of the shape WriteTraceEvents emits: valid JSON, the exact
// top-level fields, and every event a complete ("X") event with a name,
// non-negative duration, and positive pid/tid. It is the schema gate
// ci.sh runs against cmd/campaign's -trace-out.
func ValidateTraceEventJSON(data []byte) error {
	if !json.Valid(data) {
		return fmt.Errorf("obs: trace JSON: not valid JSON")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc traceEventDoc
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("obs: trace JSON: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("obs: trace JSON: trailing data after document")
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace JSON: traceEvents must be present")
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("obs: trace JSON: event %d has no name", i)
		}
		if e.Ph != "X" {
			return fmt.Errorf("obs: trace JSON: event %d (%s) has phase %q, want complete event \"X\"", i, e.Name, e.Ph)
		}
		if e.Dur < 0 {
			return fmt.Errorf("obs: trace JSON: event %d (%s) has negative duration %v", i, e.Name, e.Dur)
		}
		if e.Pid <= 0 || e.Tid <= 0 {
			return fmt.Errorf("obs: trace JSON: event %d (%s) has non-positive pid/tid %d/%d", i, e.Name, e.Pid, e.Tid)
		}
	}
	return nil
}
