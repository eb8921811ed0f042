package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// MapIter flags range statements over maps in the sim-critical packages
// (internal/{sim,ekf,spec,core,faultinject}). Go randomizes map
// iteration order per run, so anything order-sensitive built from a map
// range — compiled case order, merged results, error messages, prefix
// scheduling — differs between two executions of the same seed, which is
// exactly the class of silent nondeterminism the checkpoint-and-fork
// campaign cannot tolerate. Iterate a sorted key slice instead.
//
// Two order-insensitive idioms are exempt:
//
//   - key collection (`keys = append(keys, k)` as the entire body), the
//     first half of the sorted-iteration idiom itself, and
//   - keyless ranges (`for range m`), whose iterations cannot observe
//     the key and are therefore identical.
type MapIter struct{}

func (MapIter) Name() string { return "mapiter" }
func (MapIter) Doc() string {
	return "flag range over maps in sim-critical packages unless keys are collected and sorted first"
}

func (m MapIter) FixVisitor(pkg *Package, f *File, report FixReportFunc) VisitFunc {
	if f.IsTest || !pkg.SimCritical {
		return nil
	}
	return func(n ast.Node, _ []ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := pkg.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return
		}
		mt, ok := t.Underlying().(*types.Map)
		if !ok {
			return
		}
		if isKeyless(rs) || isKeyCollect(rs) {
			return
		}
		fix := m.sortedKeysFix(pkg, f, rs, mt)
		report(rs.For, fix, "range over map is iteration-order nondeterministic; "+
			"collect and sort the keys first")
	}
}

// isKeyless reports `for range m` (no key/value variables): every
// iteration is indistinguishable, so order cannot leak.
func isKeyless(rs *ast.RangeStmt) bool {
	keyless := func(e ast.Expr) bool {
		if e == nil {
			return true
		}
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	return keyless(rs.Key) && keyless(rs.Value)
}

// isKeyCollect reports the collection half of the sorted-iteration
// idiom: a body that only appends the key (and/or value) to a slice,
// which is order-insensitive because the slice is sorted before any
// order-sensitive use.
func isKeyCollect(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	return ok && dst.Name == lhs.Name
}

// sortedKeysFix builds the mechanical rewrite
//
//	keysN := make([]K, 0, len(m))
//	for k := range m {
//		keysN = append(keysN, k)
//	}
//	sort.Slice(keysN, func(i, j int) bool { return keysN[i] < keysN[j] })
//	for _, k := range keysN {
//		v := m[k]
//		...
//
// or nil when the shape is not mechanically fixable (assignment ranges,
// unordered key types, missing sort import with nowhere to add it).
func (MapIter) sortedKeysFix(pkg *Package, f *File, rs *ast.RangeStmt, mt *types.Map) *Fix {
	if rs.Tok != token.DEFINE {
		return nil
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return nil
	}
	if !sortableKey(mt.Key()) {
		return nil
	}
	var value *ast.Ident
	if rs.Value != nil {
		v, ok := rs.Value.(*ast.Ident)
		if !ok {
			return nil
		}
		if v.Name != "_" {
			value = v
		}
	}
	mapSrc, ok := exprString(pkg.Fset, rs.X)
	if !ok {
		return nil
	}
	importEdit, ok := ensureSortImport(pkg.Fset, f)
	if !ok {
		return nil
	}

	forPos := pkg.Fset.Position(rs.For)
	keys := fmt.Sprintf("keys%d", forPos.Line)
	keyType := types.TypeString(mt.Key(), func(p *types.Package) string { return p.Name() })
	indent := strings.Repeat("\t", forPos.Column-1)

	var pre strings.Builder
	fmt.Fprintf(&pre, "%s := make([]%s, 0, len(%s))\n", keys, keyType, mapSrc)
	fmt.Fprintf(&pre, "%sfor %s := range %s {\n", indent, key.Name, mapSrc)
	fmt.Fprintf(&pre, "%s\t%s = append(%s, %s)\n", indent, keys, keys, key.Name)
	fmt.Fprintf(&pre, "%s}\n", indent)
	fmt.Fprintf(&pre, "%ssort.Slice(%s, func(i, j int) bool { return %s[i] < %s[j] })\n",
		indent, keys, keys, keys)
	fmt.Fprintf(&pre, "%s", indent)

	header := fmt.Sprintf("for _, %s := range %s {", key.Name, keys)
	if value != nil {
		header += fmt.Sprintf("\n%s\t%s := %s[%s]", indent, value.Name, mapSrc, key.Name)
	}

	headStart := forPos
	headEnd := pkg.Fset.Position(rs.Body.Lbrace + 1)
	// One edit replaces the whole range header: the collect/sort prelude
	// and the rewritten `for` line land atomically, the body is untouched.
	edits := []TextEdit{{Start: headStart, End: headEnd, NewText: pre.String() + header}}
	if importEdit != nil {
		edits = append(edits, *importEdit)
	}
	return &Fix{Message: "iterate a sorted key slice", Edits: edits}
}

// sortableKey reports key types the generated `<` comparison orders
// totally (strings and integers, including named types like
// time.Duration). Floats are excluded: NaN breaks strict weak ordering.
func sortableKey(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsString) != 0
}

// exprString renders an expression as source text.
func exprString(fset *token.FileSet, e ast.Expr) (string, bool) {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "", false
	}
	s := buf.String()
	// A multi-line rendering (function literals etc.) would mangle the
	// generated statements; such maps are not mechanically fixable.
	return s, !strings.Contains(s, "\n")
}

// ensureSortImport returns an edit adding "sort" to the file's imports
// (nil when already imported): into the parenthesized block when there
// is one, as a standalone decl after single-line imports, or before the
// first declaration when the file imports nothing yet.
func ensureSortImport(fset *token.FileSet, f *File) (*TextEdit, bool) {
	for _, path := range f.Imports {
		if path == "sort" {
			return nil, true
		}
	}
	for _, decl := range f.AST.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() {
			continue
		}
		// Insert in path order within the first (stdlib) group.
		insert := fset.Position(gd.Rparen)
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			if strings.Trim(is.Path.Value, `"`) > "sort" {
				p := fset.Position(is.Pos())
				insert = token.Position{Filename: p.Filename, Offset: p.Offset - (p.Column - 1), Line: p.Line, Column: 1}
				break
			}
		}
		if insert.Offset == fset.Position(gd.Rparen).Offset {
			p := fset.Position(gd.Rparen)
			insert = token.Position{Filename: p.Filename, Offset: p.Offset - (p.Column - 1), Line: p.Line, Column: 1}
		}
		return &TextEdit{Start: insert, End: insert, NewText: "\t\"sort\"\n"}, true
	}
	var lastImport *ast.GenDecl
	for _, decl := range f.AST.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
			lastImport = gd
		}
	}
	if lastImport != nil {
		p := fset.Position(lastImport.End())
		return &TextEdit{Start: p, End: p, NewText: "\nimport \"sort\""}, true
	}
	if len(f.AST.Decls) == 0 {
		return nil, false
	}
	// Keep a doc comment attached to the declaration it documents.
	first := f.AST.Decls[0]
	pos := first.Pos()
	switch d := first.(type) {
	case *ast.FuncDecl:
		if d.Doc != nil {
			pos = d.Doc.Pos()
		}
	case *ast.GenDecl:
		if d.Doc != nil {
			pos = d.Doc.Pos()
		}
	}
	p := fset.Position(pos)
	lineStart := token.Position{Filename: p.Filename, Offset: p.Offset - (p.Column - 1), Line: p.Line, Column: 1}
	return &TextEdit{Start: lineStart, End: lineStart, NewText: "import \"sort\"\n\n"}, true
}
