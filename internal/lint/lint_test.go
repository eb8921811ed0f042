package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureRunner lints fixture packages under testdata/ with the whole
// suite and internal-only analyzers forced on. One shared runner keeps
// the standard-library type-check cache warm across subtests.
func fixtureRunner(t *testing.T) *Runner {
	t.Helper()
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return &Runner{ModPath: "fixture", ModRoot: root, TreatAllInternal: true, TreatAllSimCritical: true}
}

// expectation is one "// want <check>" marker in a fixture file.
type expectation struct {
	file  string
	line  int
	check string
}

var wantRe = regexp.MustCompile(`// want (\w+)`)

// readWants collects the expectations embedded in every fixture file of
// dir.
func readWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				wants = append(wants, expectation{file: e.Name(), line: line, check: m[1]})
			}
		}
		f.Close()
	}
	return wants
}

// TestFixtures runs the full suite over each analyzer's golden fixture
// directory and requires the findings to match the embedded "// want"
// markers exactly — every marked line fires (positive fixture) and no
// unmarked line does (negative fixture).
func TestFixtures(t *testing.T) {
	r := fixtureRunner(t)
	for _, check := range []string{
		"floatcmp", "globalrand", "walltime", "mutexheld", "panicfree",
		"mapiter", "goroutinespawn",
	} {
		t.Run(check, func(t *testing.T) {
			dir := filepath.Join("testdata", check)
			findings, err := r.Run(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := map[expectation]int{}
			for _, f := range findings {
				got[expectation{
					file:  filepath.Base(f.Pos.Filename),
					line:  f.Pos.Line,
					check: f.Check,
				}]++
			}
			want := map[expectation]int{}
			for _, w := range readWants(t, dir) {
				want[w]++
			}
			for w, n := range want {
				if got[w] != n {
					t.Errorf("%s:%d: want %d %s finding(s), got %d", w.file, w.line, n, w.check, got[w])
				}
			}
			for g, n := range got {
				if want[g] == 0 {
					t.Errorf("%s:%d: unexpected %s finding (×%d)", g.file, g.line, g.check, n)
				}
			}
		})
	}
}

// TestSuppressionDirectives covers the //lint:allow contract: a valid
// directive (with a reason) silences the finding on its own line and the
// line below; a directive without a reason, or naming an unknown check,
// is itself reported and suppresses nothing.
func TestSuppressionDirectives(t *testing.T) {
	r := fixtureRunner(t)
	findings, err := r.Run(filepath.Join("testdata", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	byCheck := map[string][]int{}
	for _, f := range findings {
		byCheck[f.Check] = append(byCheck[f.Check], f.Pos.Line)
	}
	// Lines 7 and 10 are validly suppressed; lines 14 and 19 carry
	// malformed directives, so their floatcmp findings survive alongside
	// one meta finding each.
	if got, want := byCheck["floatcmp"], []int{14, 19}; !equalInts(got, want) {
		t.Errorf("floatcmp findings on lines %v, want %v", got, want)
	}
	if got, want := byCheck[metaCheck], []int{14, 18}; !equalInts(got, want) {
		t.Errorf("%s findings on lines %v, want %v", metaCheck, got, want)
	}
	for check := range byCheck {
		if check != "floatcmp" && check != metaCheck {
			t.Errorf("unexpected %s findings: %v", check, byCheck[check])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAnalyzerDisable checks per-analyzer selection: with walltime
// removed from the suite its fixture is silent.
func TestAnalyzerDisable(t *testing.T) {
	r := fixtureRunner(t)
	for _, a := range All() {
		if a.Name() != "walltime" {
			r.Analyzers = append(r.Analyzers, a)
		}
	}
	findings, err := r.Run(filepath.Join("testdata", "walltime"))
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("disabled analyzer still fired: %v", findings)
	}
}

// TestSelfHost is the determinism gate's fixed point: the full suite
// over this repository must be clean, so `uavlint ./...` exits 0.
func TestSelfHost(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole repository")
	}
	modRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := r.Run(modRoot + string(filepath.Separator) + "...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
