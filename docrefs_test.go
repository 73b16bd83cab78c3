package asv_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/asv-db/asv/internal/lint"
)

// mdRef matches a Markdown file name as comments cite it: README.md,
// bench/README.md.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestCommentsCiteExistingDocs fails when a comment in the module's Go
// files names a .md file that does not exist. A name resolves against
// the commenting file's directory or any directory above it up to the
// module root, so "README.md" in internal/x/ finds the root README.
// Nested modules (a directory with its own go.mod, like bench/) and
// testdata are not this module's files and are skipped.
func TestCommentsCiteExistingDocs(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, ref := range mdRef.FindAllString(c.Text, -1) {
					checked++
					if !docExists(root, filepath.Dir(path), ref) {
						rel, _ := filepath.Rel(root, path)
						t.Errorf("%s:%d: comment cites %s, which does not exist", rel, fset.Position(c.Pos()).Line, ref)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no comment cites a .md file: the walk or the pattern is broken")
	}
}

// docExists reports whether ref names a file relative to dir or to one
// of its ancestors up to root.
func docExists(root, dir, ref string) bool {
	for {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
			return true
		}
		if dir == root {
			return false
		}
		dir = filepath.Dir(dir)
	}
}

// readmeRef matches a README token that names a repository file: a
// backticked token, with no spaces, that ends in .go or is a path under
// one of the top-level source directories; or, anywhere, a ./-prefixed
// path under one of them, as a command in a code block names it
// (go run ./cmd/asvd). Package paths (go/parser, net/http) and URL
// routes (/t/{tenant}) match neither shape.
var readmeRef = regexp.MustCompile("`([^`\\s]*\\.go|(?:internal|cmd|examples|bench|\\.github)/[^`\\s]*)`" +
	"|\\./((?:internal|cmd|examples|bench|\\.github)/[\\w./-]*\\w)")

// TestReadmeNamesExistingFiles fails when the root README names a file or
// directory that does not exist. Paths resolve against the module root.
func TestReadmeNamesExistingFiles(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	matches := readmeRef.FindAllStringSubmatch(string(data), -1)
	if len(matches) == 0 {
		t.Fatal("README names no file: the pattern is broken")
	}
	for _, m := range matches {
		path := m[1] + m[2] // exactly one of the two groups matched
		if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
			t.Errorf("README names %s, which does not exist", path)
		}
	}
}

// facadeExportBudget caps the exported funcs and methods of the public
// facade. Lower it whenever the facade shrinks; raising it means the
// change adds surface and must say which it replaces.
const facadeExportBudget = 65

// TestFacadeExports fails when asv.go and options.go together declare
// more exported funcs and methods than facadeExportBudget.
func TestFacadeExports(t *testing.T) {
	fset := token.NewFileSet()
	n := 0
	for _, file := range []string{"asv.go", "options.go"} {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				n++
			}
		}
	}
	if n > facadeExportBudget {
		t.Fatalf("the facade exports %d funcs and methods, over its budget of %d", n, facadeExportBudget)
	}
	t.Logf("the facade exports %d of %d budgeted funcs and methods", n, facadeExportBudget)
}

// configFieldBudget pins the exported fields of the settable config
// structs. Every field is a knob the tests must cover in combination, so
// a change that adds one bumps its count here and says why; a change
// that deletes one lowers it.
var configFieldBudget = []struct {
	dir, typ string
	fields   int
}{
	{"internal/core", "Config", 9},
	{"internal/autopilot", "Config", 11},
	{"internal/vmsim", "TierConfig", 3},
	{"internal/view", "CreateOptions", 3},
}

// TestConfigFieldBudget fails when a config struct's exported field count
// differs from its configFieldBudget entry.
func TestConfigFieldBudget(t *testing.T) {
	for _, b := range configFieldBudget {
		n, found := -1, false
		files, err := filepath.Glob(filepath.Join(b.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(node ast.Node) bool {
				ts, ok := node.(*ast.TypeSpec)
				if !ok || ts.Name.Name != b.typ {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return false
				}
				found, n = true, 0
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							n++
						}
					}
				}
				return false
			})
		}
		if !found {
			t.Errorf("%s: struct %s not found", b.dir, b.typ)
			continue
		}
		if n != b.fields {
			t.Errorf("%s.%s has %d exported fields, its budget is %d", filepath.Base(b.dir), b.typ, n, b.fields)
		}
	}
}

// testOnlyWaivers names the funcs and methods under internal/ and cmd/
// that only tests call and that stay anyway, keyed by
// types.Func.FullName, each with its reason. Go shares code between
// test packages only through non-test files, so an oracle or a seam that
// tests in two packages use must live in one.
var testOnlyWaivers = map[string]string{
	"github.com/asv-db/asv/internal/storage.PageMinMax": "the brute-force oracle the storage tests check the header zones against; ROADMAP item 13 reuses it",

	"github.com/asv-db/asv/internal/autopilot.NewManualClock":                  "the deterministic clock the autopilot, core and facade tests drive deadlines and ticks with",
	"(*github.com/asv-db/asv/internal/autopilot.ManualClock).Advance":          "moves the manual clock; see NewManualClock",
	"(*github.com/asv-db/asv/internal/autopilot.ManualClock).BlockUntilTimers": "waits for the pilot to arm its timer before a test advances the manual clock",

	"(*github.com/asv-db/asv/internal/vmsim.AddressSpace).VMACount": "the VMA-count oracle of the vmsim, view, explicit, storage, core and facade leak checks",
	"(*github.com/asv-db/asv/internal/vmsim.AddressSpace).EachVMA":  "walks the VMAs for the vmsim and procmaps structure checks",
	"(*github.com/asv-db/asv/internal/vmsim.Kernel).MemStats":       "the frame-conservation oracle of the vmsim, storage and core tests",
	"(*github.com/asv-db/asv/internal/vmsim.FileTier).IsCold":       "the core tiering tests read a page's tier through it; its bit is vmsim's",

	"(*github.com/asv-db/asv/internal/view.View).Refs":             "the viewset capture tests check that publication and release balance a view's references",
	"(*github.com/asv-db/asv/internal/core.Engine).PendingUpdates": "the buffered-write count the core write-path and the facade table tests check",

	"github.com/asv-db/asv/internal/workload.ConcurrentClients":  "the concurrent-reader driver shared by the root benchmarks and the core race tests",
	"github.com/asv-db/asv/internal/workload.ConcurrentUpdaters": "the concurrent-writer driver shared by the root benchmarks and the core race tests",
}

// TestEveryFuncHasACaller fails when a func or method declared in a
// non-test file under internal/ or cmd/ is referred to by no non-test
// file of this module or of the bench/ module (the ruler calls internal
// packages too), or when a testOnlyWaivers entry names a function that
// is gone or has a caller. A function's uses inside its own body do not
// count. Three kinds of method count as referred to: one that makes its
// type implement an interface that non-test code declares or uses (it
// may be called through it), one of a type the facade aliases (the
// facade's exports are API), and main and init.
func TestEveryFuncHasACaller(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var pkgs []*lint.Package
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		ps, err := lint.Load(fset, dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}

	// Every package is type-checked on its own, against its imports'
	// export data, so one type has a types.Object per package that sees
	// it: functions, types and method signatures are compared by name.
	const module = "github.com/asv-db/asv"
	var (
		declared = make(map[string]*types.Func)
		bodies   = make(map[string][2]token.Pos)
		aliased  = make(map[string]bool)     // typeKey of each facade alias target
		ifaces   = make(map[string][]string) // interface method sets by their joined signatures
		seen     = make(map[types.Type]bool)
	)
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch tt := typ.(type) {
		case *types.Alias:
			collect(types.Unalias(tt))
		case *types.Named:
			if _, ok := tt.Underlying().(*types.Interface); ok {
				collect(tt.Underlying())
			}
		case *types.Interface:
			var ms []string
			for i := 0; i < tt.NumMethods(); i++ {
				ms = append(ms, methodSig(tt.Method(i)))
			}
			if len(ms) > 0 {
				sort.Strings(ms)
				ifaces[strings.Join(ms, ";")] = ms
			}
		case *types.Pointer:
			collect(tt.Elem())
		case *types.Slice:
			collect(tt.Elem())
		case *types.Array:
			collect(tt.Elem())
		case *types.Chan:
			collect(tt.Elem())
		case *types.Map:
			collect(tt.Key())
			collect(tt.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{tt.Params(), tt.Results()} {
				for i := 0; i < tup.Len(); i++ {
					collect(tup.At(i).Type())
				}
			}
		}
	}
	// fmt calls String through fmt.Stringer, which no signature names.
	collect(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false))}, nil))
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			collect(tv.Type)
		}
		for _, obj := range p.Info.Uses {
			collect(obj.Type())
		}
		if p.ImportPath == module {
			scope := p.Types.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
					if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						aliased[typeKey(n)] = true
					}
				}
			}
		}
		if !strings.HasPrefix(p.ImportPath, module+"/internal/") && !strings.HasPrefix(p.ImportPath, module+"/cmd/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := p.Info.Defs[fd.Name].(*types.Func)
					declared[fn.FullName()] = fn
					bodies[fn.FullName()] = [2]token.Pos{fd.Pos(), fd.End()}
				}
			}
		}
	}

	used := make(map[string]bool)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				key := fn.Origin().FullName()
				if b, ok := bodies[key]; ok && b[0] <= id.Pos() && id.Pos() < b[1] {
					continue // recursion is not a caller
				}
				used[key] = true
			}
		}
	}

	referred := func(fn *types.Func) bool {
		if used[fn.FullName()] {
			return true
		}
		recv := fn.Signature().Recv()
		if recv == nil {
			return fn.Name() == "main" || fn.Name() == "init"
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		named := typ.(*types.Named)
		if aliased[typeKey(named)] {
			return true
		}
		mset := make(map[string]bool)
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			mset[methodSig(ms.At(i).Obj().(*types.Func))] = true
		}
		self := methodSig(fn)
		for _, iface := range ifaces {
			if slices.Contains(iface, self) && !slices.ContainsFunc(iface, func(m string) bool { return !mset[m] }) {
				return true
			}
		}
		return false
	}
	var dead []string
	for key, fn := range declared {
		if _, waived := testOnlyWaivers[key]; !waived && !referred(fn) {
			pos := fset.Position(fn.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			dead = append(dead, fmt.Sprintf("%s:%d: %s", rel, pos.Line, key))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, or waive it in testOnlyWaivers with the reason", d)
	}
	for key := range testOnlyWaivers {
		fn, ok := declared[key]
		switch {
		case !ok:
			t.Errorf("testOnlyWaivers names %s, which is not declared under internal/ or cmd/", key)
		case referred(fn):
			t.Errorf("testOnlyWaivers names %s, which now has a non-test caller: drop the waiver", key)
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no function under internal/ or cmd/: the load is broken")
	}
	t.Logf("%d funcs and methods checked, %d waived", len(declared), len(testOnlyWaivers))
}

// alwaysNilWaivers names the funcs and methods under internal/ and cmd/
// whose error result is always nil and that keep it anyway, keyed by
// types.Func.FullName, each with its reason.
var alwaysNilWaivers = map[string]string{
	"(*github.com/asv-db/asv/internal/explicit.ZoneMap).ApplyUpdate": "implements explicit.Index, whose other ApplyUpdate implementations can fail",
}

// TestEveryErrorCanHappen fails when a func or method declared in a
// non-test file under internal/ or cmd/ has unnamed results, the last an
// error, and gives a literal nil for it at every return (returns inside
// func literals are not its own): that error cannot happen, and every
// caller carries a dead branch for it. An alwaysNilWaivers entry
// that names a function which is gone or can now fail fails too.
func TestEveryErrorCanHappen(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := lint.Load(fset, root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	const module = "github.com/asv-db/asv"
	errType := types.Universe.Lookup("error").Type()
	declared := make(map[string]bool)
	waived := make(map[string]bool) // waivers whose function still always gives nil
	var alwaysNil []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, module+"/internal/") && !strings.HasPrefix(p.ImportPath, module+"/cmd/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				declared[fn.FullName()] = true
				res := fn.Signature().Results()
				n := res.Len()
				if n == 0 || res.At(0).Name() != "" || !types.Identical(res.At(n-1).Type(), errType) {
					continue
				}
				returns, alwaysNilErr := 0, true
				ast.Inspect(fd.Body, func(node ast.Node) bool {
					switch node := node.(type) {
					case *ast.FuncLit:
						return false
					case *ast.ReturnStmt:
						returns++
						if len(node.Results) != n || !p.Info.Types[node.Results[n-1]].IsNil() {
							alwaysNilErr = false // a call giving all results, or an error that can be non-nil
						}
					}
					return true
				})
				if returns == 0 || !alwaysNilErr {
					continue
				}
				if _, ok := alwaysNilWaivers[fn.FullName()]; ok {
					waived[fn.FullName()] = true
					continue
				}
				pos := fset.Position(fd.Pos())
				rel, _ := filepath.Rel(root, pos.Filename)
				alwaysNil = append(alwaysNil, fmt.Sprintf("%s:%d: %s", rel, pos.Line, fn.FullName()))
			}
		}
	}
	sort.Strings(alwaysNil)
	for _, d := range alwaysNil {
		t.Errorf("%s returns a nil error at every return: drop the error result, or waive it in alwaysNilWaivers with the reason", d)
	}
	for key := range alwaysNilWaivers {
		switch {
		case !declared[key]:
			t.Errorf("alwaysNilWaivers names %s, which is not declared under internal/ or cmd/", key)
		case !waived[key]:
			t.Errorf("alwaysNilWaivers names %s, which can now return an error: drop the waiver", key)
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no function under internal/ or cmd/: the load is broken")
	}
}

// typeKey names a defined type as "pkg/path.Name".
func typeKey(n *types.Named) string { return n.Obj().Pkg().Path() + "." + n.Obj().Name() }

// methodSig renders a method's name and parameter and result types,
// qualified by package path, so that a method and an interface method
// compare equal across separately type-checked packages.
func methodSig(fn *types.Func) string {
	sig := fn.Signature()
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
