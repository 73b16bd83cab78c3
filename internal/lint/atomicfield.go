package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The atomicfield analyzer enforces all-or-nothing atomicity on struct
// fields: a field whose address is passed to a sync/atomic function
// anywhere in the module must be accessed through sync/atomic
// everywhere. A single plain load of a field that is concurrently
// atomic.AddUint64'd is a data race the race detector only catches when
// a racing schedule happens to run; this check catches it on every CI
// run. (Fields of the atomic.Int64-style wrapper types are immune by
// construction — the type system already forbids plain access — so the
// analyzer only concerns itself with function-style sync/atomic use.)
//
// The analyzer also knows the obs telemetry instruments: a struct field
// holding a raw obs.Counter / obs.Histogram value (directly or inside an
// array/slice) is rejected. Instruments are shared atomics behind a
// handle stored once at construction; a value field forks the counts
// whenever the struct is copied, and the copy compiles fine — the
// instrument's pointer-receiver methods auto-address the field — so only
// a module-wide rule catches the drift.
func runAtomicField(m *Module) []Diagnostic {
	type access struct {
		pos       ast.Node
		pkg       *Package
		fieldName string
	}
	atomicFields := make(map[string]bool) // fieldKey -> seen atomic access
	inAtomicArg := make(map[*ast.SelectorExpr]bool)
	var plains []struct {
		key  string
		sel  *ast.SelectorExpr
		pkg  *Package
		name string
	}

	// Single pass per package: record the &field arguments of
	// sync/atomic calls, then every field selection not among them.
	for _, pkg := range m.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(pkg.Info, call)
				if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" || len(call.Args) == 0 {
					return true
				}
				addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if key, ok := fieldKeyOf(pkg, sel); ok {
					atomicFields[key] = true
					inAtomicArg[sel] = true
				}
				return true
			})
		}
	}
	for _, pkg := range m.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || inAtomicArg[sel] {
					return true
				}
				if key, ok := fieldKeyOf(pkg, sel); ok {
					plains = append(plains, struct {
						key  string
						sel  *ast.SelectorExpr
						pkg  *Package
						name string
					}{key, sel, pkg, sel.Sel.Name})
				}
				return true
			})
		}
	}

	var diags []Diagnostic
	for _, p := range plains {
		if !atomicFields[p.key] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      m.fset.Position(p.sel.Pos()),
			Analyzer: "atomicfield",
			Message: fmt.Sprintf("field %s is accessed with sync/atomic elsewhere; this plain access races with it",
				p.key),
		})
	}
	diags = append(diags, rawInstrumentFields(m)...)
	return diags
}

// rawInstrumentFields flags struct fields that hold an obs instrument by
// value. The obs package itself is exempt: it owns the instrument
// internals and its snapshot types are values by design.
func rawInstrumentFields(m *Module) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range m.pkgs {
		if isObsPkgPath(pkg.ImportPath) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					inst, ok := rawInstrumentType(pkg.Info.TypeOf(f.Type))
					if !ok {
						continue
					}
					name := inst // embedded field: named after the type
					if len(f.Names) > 0 {
						parts := make([]string, len(f.Names))
						for i, id := range f.Names {
							parts[i] = id.Name
						}
						name = strings.Join(parts, ", ")
					}
					diags = append(diags, Diagnostic{
						Pos:      m.fset.Position(f.Type.Pos()),
						Analyzer: "atomicfield",
						Message: fmt.Sprintf("field %s holds a raw obs.%s value; instrument fields must be pointer handles (*obs.%s) so struct copies cannot fork the counts",
							name, inst, inst),
					})
				}
				return true
			})
		}
	}
	return diags
}

// rawInstrumentType unwraps arrays and slices and reports whether the
// element is a value-typed obs instrument; pointer elements are the
// sanctioned handle form and pass.
func rawInstrumentType(t types.Type) (string, bool) {
	for {
		switch u := t.(type) {
		case *types.Array:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			obj := named.Obj()
			if obj.Pkg() == nil || !isObsPkgPath(obj.Pkg().Path()) {
				return "", false
			}
			switch obj.Name() {
			case "Counter", "Histogram":
				return obj.Name(), true
			}
			return "", false
		}
	}
}

// fieldKeyOf identifies a struct-field selection module-wide as
// "pkg/path.Type.field"; ok is false for non-field selections and
// fields of anonymous struct types.
func fieldKeyOf(pkg *Package, sel *ast.SelectorExpr) (string, bool) {
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	named := namedOf(selection.Recv())
	if named == nil {
		return "", false
	}
	return typeKey(named) + "." + sel.Sel.Name, true
}
