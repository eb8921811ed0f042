// Package lint is a simulation-aware static-analysis framework for this
// repository. The paper's campaign (850 runs, 21 injection types × 4
// durations × 10 missions) is only reproducible if the simulator stays
// bit-deterministic and numerically safe; the analyzers in this package
// encode those invariants as machine-checkable structure so every future
// performance or scaling change is automatically held to the same
// contract. Built on go/parser + go/ast + go/types only (no external
// dependencies), it parses each file once and runs all analyzers over a
// single shared AST walk.
//
// Findings can be suppressed with an explicit, reasoned directive placed
// on the offending line or the line directly above it:
//
//	//lint:allow <check> <reason>
//
// A directive without a reason is itself a finding: exemptions from the
// determinism contract must be justified in the source.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
	// Fix, when non-nil, is a mechanical rewrite that resolves the
	// finding (applied by uavlint -fix).
	Fix *Fix
}

// String renders the canonical "file:line: [check] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Message)
}

// ReportFunc records a finding at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// FixReportFunc records a finding at pos carrying a suggested fix.
type FixReportFunc func(pos token.Pos, fix *Fix, format string, args ...any)

// Analyzer is one lint check.
type Analyzer interface {
	Name() string
	Doc() string
}

// VisitFunc is called for every node of a file during the shared walk.
// stack holds the path from the file root to n (stack[len(stack)-1] == n).
type VisitFunc func(n ast.Node, stack []ast.Node)

// NodeAnalyzer participates in the shared per-file AST walk. Visitor is
// called once per file and returns the node callback, or nil to skip the
// file entirely.
type NodeAnalyzer interface {
	Analyzer
	Visitor(pkg *Package, f *File, report ReportFunc) VisitFunc
}

// FixNodeAnalyzer is a NodeAnalyzer whose findings can carry suggested
// fixes. It takes precedence over NodeAnalyzer when both are
// implemented.
type FixNodeAnalyzer interface {
	Analyzer
	FixVisitor(pkg *Package, f *File, report FixReportFunc) VisitFunc
}

// PackageAnalyzer runs once per package after all files are parsed; use
// it for checks that need cross-file context (struct declarations vs.
// method bodies).
type PackageAnalyzer interface {
	Analyzer
	CheckPackage(pkg *Package, report ReportFunc)
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		FloatCmp{},
		GlobalRand{},
		WallTime{},
		MutexHeld{},
		PanicFree{},
		MapIter{},
		GoroutineSpawn{},
	}
}

// simCriticalPkgs are the internal packages whose compile order, results
// merging, and execution must stay bit-deterministic: the per-case
// simulation stack plus the plan/merge layers. MapIter applies here.
var simCriticalPkgs = map[string]bool{
	"sim": true, "ekf": true, "spec": true,
	"core": true, "faultinject": true,
}

// goroutineFreePkgs reports whether an internal package must not own
// goroutines. core owns the one sanctioned worker pool (the campaign
// runner); everything else in internal/ is deterministic per-case code
// where a spawned goroutine would make step order scheduler-dependent.
var goroutineFreePkgs = func(base string) bool { return base != "core" }

// internalBase returns the first path element under internal/ ("" when
// the package is not internal).
func internalBase(importPath string) string {
	_, rest, ok := strings.Cut(importPath, "internal/")
	if !ok {
		return ""
	}
	base, _, _ := strings.Cut(rest, "/")
	return strings.TrimSuffix(base, "_test")
}

// Package is one parsed (and best-effort type-checked) package under
// analysis.
type Package struct {
	// ImportPath is the package's path within the module.
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Internal reports whether the package sits under an internal/
	// directory — the determinism-critical library core.
	Internal bool
	// SimCritical reports membership in the bit-determinism core
	// (simCriticalPkgs): map iteration order and spawned goroutines are
	// findings here.
	SimCritical bool
	// GoroutineFree reports that the package may not own goroutines
	// (every internal package except core).
	GoroutineFree bool
	Fset          *token.FileSet
	Files         []*File
	// TypesInfo holds best-effort expression types for non-test files.
	// Type checking is lenient (errors are ignored) so analyzers must
	// tolerate missing entries.
	TypesInfo *typeInfo
}

// File is one parsed source file.
type File struct {
	Path string
	AST  *ast.File
	// IsTest reports a _test.go file.
	IsTest bool
	// Imports maps local import name to import path ("rand" ->
	// "math/rand"), with aliases resolved.
	Imports map[string]string

	allows []allowDirective
}
