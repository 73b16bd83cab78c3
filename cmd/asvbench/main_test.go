package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/asv-db/asv/internal/harness"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all: %d experiments, %v", len(all), err)
	}
	one, err := selectExperiments("fig3")
	if err != nil || len(one) != 1 || one[0].id != "fig3" {
		t.Fatalf("fig3: %v, %v", one, err)
	}
	multi, err := selectExperiments("fig6a,fig7b")
	if err != nil || len(multi) != 2 || multi[0].id != "fig6a" || multi[1].id != "fig7b" {
		t.Fatalf("multi: %v, %v", multi, err)
	}
	if _, err := selectExperiments("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := selectExperiments("fig3,fig99"); err == nil {
		t.Fatal("partially unknown list accepted")
	}
}

// TestUnknownExperimentListsNames pins the CLI contract: a typo'd
// -experiment must fail with a message naming the rejected input and
// listing every valid experiment id (plus "all"), never silently running
// nothing or defaulting.
func TestUnknownExperimentListsNames(t *testing.T) {
	_, err := selectExperiments("fig99")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"fig99"`) {
		t.Fatalf("error does not name the rejected input: %q", msg)
	}
	for _, e := range experiments {
		if !strings.Contains(msg, e.id) {
			t.Fatalf("error does not list experiment %q: %q", e.id, msg)
		}
	}
	if !strings.Contains(msg, "all") {
		t.Fatalf("error does not mention the 'all' pseudo-experiment: %q", msg)
	}
	// A trailing comma produces an empty name, which is rejected too —
	// never a silent no-op run.
	if _, err := selectExperiments("fig3,"); err == nil {
		t.Fatal("trailing-comma experiment list accepted")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Fatalf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.desc == "" || e.run == nil {
			t.Fatalf("experiment %q incomplete", e.id)
		}
	}
}

// TestDocumentedExperimentsExist keeps the docs honest: every
// `asvbench -experiment <name>` that README or CI spells must name a
// registered experiment (or "all"), so a deleted experiment fails here
// rather than only when someone copies the line; README must spell at
// least one. The command's doc comment must list exactly the registered
// ids, in order, followed by "all".
func TestDocumentedExperimentsExist(t *testing.T) {
	known := map[string]bool{"all": true}
	var ids []string
	for _, e := range experiments {
		known[e.id] = true
		ids = append(ids, e.id)
	}
	invocation := regexp.MustCompile(`asvbench\s+-experiment[\s=]+([\w,]+)`)
	for _, path := range []string{"../../.github/workflows/ci.yml", "../../README.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		matches := invocation.FindAllSubmatch(data, -1)
		if len(matches) == 0 && strings.HasSuffix(path, "README.md") {
			t.Fatalf("%s: no asvbench -experiment invocation found", path)
		}
		for _, m := range matches {
			for _, name := range strings.Split(string(m[1]), ",") {
				if !known[name] {
					t.Errorf("%s: asvbench -experiment %s: no such experiment", path, name)
				}
			}
		}
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "package main")
	doc = strings.Join(strings.Fields(strings.ReplaceAll(doc, "//", " ")), " ")
	m := regexp.MustCompile(`Experiments: ([^.]+)\.`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("main.go doc comment has no \"Experiments: ...\" list")
	}
	if got, want := m[1], strings.Join(append(ids, "all"), ", "); got != want {
		t.Errorf("main.go doc comment lists %q, registered %q", got, want)
	}
}

func TestEmitToDirectory(t *testing.T) {
	dir := t.TempDir()
	tbl := &harness.Table{ID: "demo", Title: "t", Header: []string{"a"}}
	tbl.AddRow("1")
	if err := emit(tbl, "tsv", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "demo.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "demo") || !strings.Contains(string(data), "1") {
		t.Fatalf("file contents: %q", data)
	}
}

func TestTableHelpers(t *testing.T) {
	res := &harness.SequenceResult{Table: &harness.Table{ID: "x"}}
	tables, err := seqTables(res, nil)
	if err != nil || len(tables) != 1 {
		t.Fatalf("seqTables: %v, %v", tables, err)
	}
	if _, err := seqTables(nil, os.ErrClosed); err == nil {
		t.Fatal("seqTables swallowed error")
	}
	if _, err := one(nil, os.ErrClosed); err == nil {
		t.Fatal("one swallowed error")
	}
	var buf bytes.Buffer
	if err := (&harness.Table{ID: "y", Header: []string{"h"}}).WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
}
