package lint

import (
	"go/ast"
)

// GoroutineSpawn forbids go statements in the deterministic simulation
// packages. A case's step sequence must depend only on its seed: a
// goroutine inside the per-case stack makes memory ordering and
// completion order scheduler-dependent, which silently breaks the
// checkpoint-and-fork bit-identity the campaign results rest on. The
// campaign runner (internal/core) owns the one sanctioned worker pool;
// everything else in internal/ must stay goroutine-free. This analyzer
// replaces the old `grep 'go func'` CI gate and, unlike it, also catches
// method-value spawns (`go m.run()`) and survives file renames.
type GoroutineSpawn struct{}

func (GoroutineSpawn) Name() string { return "goroutinespawn" }
func (GoroutineSpawn) Doc() string {
	return "forbid go statements in internal packages other than core, the campaign runner's worker pool"
}

func (GoroutineSpawn) Visitor(pkg *Package, f *File, report ReportFunc) VisitFunc {
	if f.IsTest || !pkg.GoroutineFree {
		return nil
	}
	return func(n ast.Node, _ []ast.Node) {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		report(g.Pos(), "go statement in goroutine-free package %s; per-case simulation "+
			"code must stay single-threaded (run concurrency through core.Runner)", pkg.ImportPath)
	}
}
