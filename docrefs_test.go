package asv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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

// readmeRef matches a backticked README token, with no spaces, that names
// a repository file: anything ending in .go, or a path under one of the
// top-level source directories. Package paths (go/parser, net/http) and
// URL routes (/t/{tenant}) match neither shape.
var readmeRef = regexp.MustCompile("`([^`\\s]*\\.go|(?:internal|cmd|examples|bench|\\.github)/[^`\\s]*)`")

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
		if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
			t.Errorf("README names %s, which does not exist", m[1])
		}
	}
}

// facadeExportBudget caps the exported funcs and methods of the public
// facade. Lower it whenever the facade shrinks; raising it means the
// change adds surface and must say which it replaces.
const facadeExportBudget = 67

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
	{"internal/autopilot", "Config", 13},
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
