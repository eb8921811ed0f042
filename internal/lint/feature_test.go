package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixtureModule lays out a throwaway module and returns a runner
// rooted at it with every package treated as sim-critical.
func writeFixtureModule(t *testing.T, files map[string]string) (*Runner, string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return &Runner{ModPath: "fixture", ModRoot: dir, TreatAllInternal: true, TreatAllSimCritical: true}, dir
}

// TestApplyFixes exercises the -fix pipeline end to end: the mapiter
// sorted-keys rewrite and the floatcmp NaN-idiom rewrite are applied in
// place, and a re-run over the rewritten tree is clean.
func TestApplyFixes(t *testing.T) {
	src := `package fixture

import (
	"fmt"
	"math"
)

func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if x != x {
			return true
		}
	}
	return false
}

func labelSum(m map[string]float64) string {
	out := ""
	for k, v := range m {
		out += fmt.Sprintf("%s=%v;", k, v)
	}
	return out
}

var _ = math.Pi
`
	// noparen.go has only a single-line import: the sort import must be
	// added as a standalone decl, not into a (missing) block.
	src2 := `package fixture

import "fmt"

func dump(m map[int]string) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`
	r, dir := writeFixtureModule(t, map[string]string{"fix.go": src, "noparen.go": src2})
	findings, err := r.Run(dir)
	if err != nil {
		t.Fatal(err)
	}
	fixable := 0
	for _, f := range findings {
		if f.Fix != nil {
			fixable++
		}
	}
	if fixable != 3 {
		t.Fatalf("want 3 fixable findings (2 mapiter + floatcmp), got %d of %d: %v", fixable, len(findings), findings)
	}

	applied, err := ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("applied %d fixes, want 3", applied)
	}

	fixed, err := os.ReadFile(filepath.Join(dir, "fix.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"math.IsNaN(x)", "sort.Slice(", `"sort"`, "v := m[k]"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed source missing %q:\n%s", want, fixed)
		}
	}
	fixed2, err := os.ReadFile(filepath.Join(dir, "noparen.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"import \"sort\"", "sort.Slice(", "v := m[k]"} {
		if !strings.Contains(string(fixed2), want) {
			t.Errorf("fixed noparen.go missing %q:\n%s", want, fixed2)
		}
	}

	// The rewritten tree must be clean — the fix is the whole point.
	again := &Runner{ModPath: "fixture", ModRoot: dir, TreatAllInternal: true, TreatAllSimCritical: true}
	findings, err = again.Run(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("findings after fix: %v", findings)
	}
}

// TestJSONReport checks the machine-readable shape CI consumes.
func TestJSONReport(t *testing.T) {
	findings := []Finding{
		{Pos: position("a.go", 3, 7), Check: "mapiter", Message: "range over map", Fix: &Fix{Message: "sort"}},
		{Pos: position("b.go", 9, 1), Check: "floatcmp", Message: "exact compare"},
	}
	var buf bytes.Buffer
	if err := WriteJSONReport(&buf, "uavres", findings); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.ModPath != "uavres" || rep.Count != 2 || len(rep.Findings) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if f := rep.Findings[0]; f.File != "a.go" || f.Line != 3 || f.Check != "mapiter" || !f.Fixable {
		t.Errorf("finding[0] = %+v", f)
	}
	if rep.Findings[1].Fixable {
		t.Errorf("finding[1] marked fixable without a fix")
	}
}

// TestUnusedSuppressions: a well-formed //lint:allow that suppresses
// nothing is reported (under the unsuppressable meta check) only when
// the audit is enabled.
func TestUnusedSuppressions(t *testing.T) {
	src := `package fixture

//lint:allow floatcmp historical; nothing here compares floats
func add(a, b int) int { return a + b }

func cmp(a, b float64) bool {
	//lint:allow floatcmp exact sentinel compare is intended here
	return a == b
}
`
	r, dir := writeFixtureModule(t, map[string]string{"sup.go": src})
	findings, err := r.Run(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("audit off: findings = %v", findings)
	}

	r = &Runner{ModPath: "fixture", ModRoot: dir, TreatAllInternal: true, TreatAllSimCritical: true, ReportUnusedAllows: true}
	findings, err = r.Run(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("audit on: findings = %v, want exactly the stale directive", findings)
	}
	f := findings[0]
	if f.Check != metaCheck || f.Pos.Line != 3 || !strings.Contains(f.Message, "unused") {
		t.Errorf("finding = %v", f)
	}
}

func position(file string, line, col int) token.Position {
	return token.Position{Filename: file, Line: line, Column: col}
}
