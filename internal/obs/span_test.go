package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fakeClock hands out 1, 2, 3, ... seconds.
func fakeClock() Clock {
	t := 0.0
	return func() float64 { t++; return t }
}

func TestTracerStartEndAnnotate(t *testing.T) {
	tr := NewTracer(fakeClock(), 8)
	root := tr.Start("campaign", 0, StrAttr("spec", "abc"))
	child := tr.Start("case", root, StrAttr("id", "m01-gold"), NumAttr("seed", 42))
	tr.Annotate(child, StrAttr("outcome", "completed"), BoolAttr("forked", true))
	tr.End(child)
	tr.End(root)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "campaign" || spans[0].Parent != 0 {
		t.Errorf("root span: %+v", spans[0])
	}
	c := spans[1]
	if c.Parent != root {
		t.Errorf("child parent = %d, want %d", c.Parent, root)
	}
	if c.Open {
		t.Errorf("child still open after End")
	}
	if c.End <= c.Start {
		t.Errorf("child end %v <= start %v", c.End, c.Start)
	}
	want := []Attr{StrAttr("id", "m01-gold"), NumAttr("seed", 42), StrAttr("outcome", "completed"), BoolAttr("forked", true)}
	if len(c.Attrs) != len(want) {
		t.Fatalf("child attrs = %+v, want %+v", c.Attrs, want)
	}
	for i := range want {
		if c.Attrs[i] != want[i] {
			t.Errorf("attr %d = %+v, want %+v", i, c.Attrs[i], want[i])
		}
	}
}

func TestTracerEndIdempotent(t *testing.T) {
	tr := NewTracer(fakeClock(), 4)
	id := tr.Start("case", 0)
	tr.End(id)
	first := tr.Spans()[0].End
	tr.End(id) // second End must not move the timestamp
	if got := tr.Spans()[0].End; got != first {
		t.Errorf("second End moved end time %v -> %v", first, got)
	}
	tr.End(0)  // span 0 is a no-op
	tr.End(99) // out of range is a no-op
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	id := tr.Start("case", 0, StrAttr("id", "x"))
	if id != 0 {
		t.Errorf("nil tracer Start = %d, want 0", id)
	}
	tr.End(id)
	tr.Annotate(id, StrAttr("k", "v"))
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer not inert")
	}
}

func TestTracerAttrOverflow(t *testing.T) {
	tr := NewTracer(nil, 1)
	attrs := make([]Attr, maxSpanAttrs+3)
	for i := range attrs {
		attrs[i] = NumAttr("k", float64(i))
	}
	id := tr.Start("case", 0, attrs...)
	if got := len(tr.Spans()[0].Attrs); got != maxSpanAttrs {
		t.Errorf("kept %d attrs, want %d", got, maxSpanAttrs)
	}
	tr.Annotate(id, StrAttr("late", "x"))
	if tr.droppedAttrs != 4 {
		t.Errorf("droppedAttrs = %d, want 4", tr.droppedAttrs)
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer(nil, 4)
	tr.max = 3
	for i := 0; i < 5; i++ {
		tr.Start("s", 0)
	}
	if tr.Len() != 3 {
		t.Errorf("len = %d, want 3 (capped)", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Errorf("reset left len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

// buildSample records the same span tree under the given clock.
func buildSample(clock Clock) *Tracer {
	tr := NewTracer(clock, 16)
	root := tr.Start("campaign", 0, StrAttr("spec", "abc"), NumAttr("cases", 3))
	p := tr.Start("prefix", root, NumAttr("mission", 1), NumAttr("start_sec", 90))
	tr.End(p)
	b := tr.Start("batch", p, NumAttr("cases", 2), StrAttr("first", "m01-a"))
	for _, id := range []string{"m01-b", "m01-a"} { // creation order != sorted order
		c := tr.Start("case", b, StrAttr("id", id))
		tr.Annotate(c, StrAttr("outcome", "completed"))
		tr.End(c)
	}
	tr.End(b)
	tr.End(root)
	return tr
}

func TestWriteTraceEventsValidAndDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSample(fakeClock()).WriteTraceEvents(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample(fakeClock()).WriteTraceEvents(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceEventJSON(a.Bytes()); err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical builds exported different bytes:\n%s\nvs\n%s", a.String(), b.String())
	}

	// A different clock changes ONLY ts/dur values.
	var c bytes.Buffer
	slow := func() Clock { t := 0.0; return func() float64 { t += 10; return t } }()
	if err := buildSample(slow).WriteTraceEvents(&c); err != nil {
		t.Fatal(err)
	}
	if got, want := stripTimes(t, c.Bytes()), stripTimes(t, a.Bytes()); got != want {
		t.Errorf("clock change altered non-timestamp content:\n%s\nvs\n%s", got, want)
	}

	// Case events must be sorted by attribute signature, not creation order.
	ids := caseIDOrder(t, a.Bytes())
	if strings.Join(ids, ",") != "m01-a,m01-b" {
		t.Errorf("case order = %v, want sorted [m01-a m01-b]", ids)
	}
}

// stripTimes is TraceSignature with test-fatal error handling.
func stripTimes(t *testing.T, data []byte) string {
	t.Helper()
	sig, err := TraceSignature(data)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// caseIDOrder extracts the "id" arg of every "case" event in emit order.
func caseIDOrder(t *testing.T, data []byte) []string {
	t.Helper()
	var doc traceEventDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range doc.TraceEvents {
		if e.Name == "case" {
			ids = append(ids, e.Args["id"].(string))
		}
	}
	return ids
}

func TestWriteTraceEventsOpenSpan(t *testing.T) {
	tr := NewTracer(fakeClock(), 4)
	tr.Start("campaign", 0)
	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceEventJSON(buf.Bytes()); err != nil {
		t.Fatalf("open-span export does not validate: %v", err)
	}
	if !strings.Contains(buf.String(), `"open": "true"`) {
		t.Errorf("open span not marked:\n%s", buf.String())
	}
}

func TestValidateTraceEventJSONRejects(t *testing.T) {
	bad := []string{
		`{`,
		`{"traceEvents": [{"name":"", "ph":"X", "ts":0, "dur":0, "pid":1, "tid":1}], "displayTimeUnit":"ms"}`,
		`{"traceEvents": [{"name":"x", "ph":"B", "ts":0, "dur":0, "pid":1, "tid":1}], "displayTimeUnit":"ms"}`,
		`{"traceEvents": [{"name":"x", "ph":"X", "ts":0, "dur":-1, "pid":1, "tid":1}], "displayTimeUnit":"ms"}`,
		`{"traceEvents": [{"name":"x", "ph":"X", "ts":0, "dur":0, "pid":0, "tid":1}], "displayTimeUnit":"ms"}`,
		`{"displayTimeUnit":"ms"}`,
		`{"traceEvents": [], "displayTimeUnit":"ms", "extra": 1}`,
	}
	for _, s := range bad {
		if err := ValidateTraceEventJSON([]byte(s)); err == nil {
			t.Errorf("validated bad document: %s", s)
		}
	}
	good := `{"displayTimeUnit":"ms","traceEvents":[{"name":"x","cat":"campaign","ph":"X","ts":0,"dur":5,"pid":1,"tid":1}]}`
	if err := ValidateTraceEventJSON([]byte(good)); err != nil {
		t.Errorf("rejected good document: %v", err)
	}
}

// TestSpanStartEndZeroAlloc is the hot-path allocation guard: once the
// span slice has capacity, Start+End must not allocate (the campaign
// runner calls them per case from every worker).
func TestSpanStartEndZeroAlloc(t *testing.T) {
	tr := NewTracer(Stopped(), 4096)
	root := tr.Start("campaign", 0)
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Start("case", root, StrAttr("id", "m01-gold"))
		tr.End(id)
		if tr.Len() >= 4000 {
			tr.Reset()
			root = tr.Start("campaign", 0)
		}
	})
	if allocs > 0 {
		t.Errorf("Start/End allocates %.1f allocs/op, want 0", allocs)
	}
}
