package lint

import (
	"go/ast"
	"go/types"
)

// The droppederr analyzer finds error results discarded by assigning
// them to the blank identifier — `_ = col.Close()`, `n, _ := w.Write(p)`
// — and requires each to carry an //asv:ignore-err <reason> directive.
// The reason is the point: "an unmapped file always shrinks; the
// allocation error is returned" is reviewable; a bare `_ =` is
// indistinguishable from a forgotten check.
func runDroppedErr(m *Module) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range m.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				assign, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				diags = append(diags, m.checkDroppedErr(pkg, assign)...)
				return true
			})
		}
	}
	return diags
}

func (m *Module) checkDroppedErr(pkg *Package, assign *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	report := func(lhs ast.Expr) {
		pos := m.fset.Position(lhs.Pos())
		if m.lines.ignoreErrAt(pos) {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:      pos,
			Analyzer: "droppederr",
			Message:  "error result discarded; handle it or annotate //asv:ignore-err <reason>",
		})
	}

	if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
		// Multi-value call: a, _ := f().
		tv, ok := pkg.Info.Types[assign.Rhs[0]]
		if !ok {
			return nil
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok {
			return nil
		}
		for i, lhs := range assign.Lhs {
			if isBlank(lhs) && i < tuple.Len() && isErrorType(tuple.At(i).Type()) {
				report(lhs)
			}
		}
		return diags
	}
	for i, lhs := range assign.Lhs {
		if !isBlank(lhs) || i >= len(assign.Rhs) {
			continue
		}
		tv, ok := pkg.Info.Types[assign.Rhs[i]]
		if !ok || tv.Type == nil {
			continue
		}
		if isErrorType(tv.Type) {
			report(lhs)
		}
	}
	return diags
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
