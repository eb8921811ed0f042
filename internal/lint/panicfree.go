package lint

import (
	"go/ast"
	"strings"
)

// PanicFree forbids panic in internal/ library code. A panic in a campaign
// worker tears down the whole campaign instead of failing one case;
// library code must return errors. Conventional escape hatches remain:
// init functions and Must* constructors, whose documented contract is to
// panic on programmer error.
type PanicFree struct{}

func (PanicFree) Name() string { return "panicfree" }
func (PanicFree) Doc() string {
	return "forbid panic in internal/ library code outside init and Must* helpers"
}

func (PanicFree) Visitor(pkg *Package, f *File, report ReportFunc) VisitFunc {
	if f.IsTest || !pkg.Internal {
		return nil
	}
	return func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" || id.Obj != nil {
			return
		}
		// The nearest enclosing declared function decides the exemption;
		// a closure inside MustX is still MustX's contract.
		for i := len(stack) - 1; i >= 0; i-- {
			if fd, ok := stack[i].(*ast.FuncDecl); ok {
				name := fd.Name.Name
				if name == "init" || strings.HasPrefix(name, "Must") || strings.HasPrefix(name, "must") {
					return
				}
				report(call.Pos(), "panic in library function %s; return an error "+
					"(panics abort the whole campaign, not one case)", name)
				return
			}
		}
		report(call.Pos(), "panic in package-level initializer; return an error or move into init")
	}
}
