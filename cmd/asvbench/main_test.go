package main

import (
	"bytes"
	"encoding/json"
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
	// The new panel is registered and listed like the rest.
	found := false
	for _, e := range experiments {
		if e.id == "autopilot" {
			found = true
		}
	}
	if !found {
		t.Fatal("autopilot experiment not registered")
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

// TestDocumentedExperimentsExist keeps the nightly job and the README
// honest: every `asvbench -experiment <name>` they spell must name a
// registered experiment (or "all"), so a deleted panel fails here rather
// than only in the scheduled CI run.
func TestDocumentedExperimentsExist(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.id] = true
	}
	invocation := regexp.MustCompile(`asvbench\s+-experiment[\s=]+([\w,]+)`)
	for _, path := range []string{"../../.github/workflows/ci.yml", "../../README.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		matches := invocation.FindAllSubmatch(data, -1)
		if len(matches) == 0 {
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

func TestEmitJSON(t *testing.T) {
	tbl := &harness.Table{ID: "demo", Title: "a demo", Header: []string{"x", "y"}}
	tbl.AddRow("1", "2.5")
	tbl.AddRow("3", "4.5")

	var buf bytes.Buffer
	if err := writeJSON(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if got.ID != "demo" || got.Title != "a demo" || len(got.Header) != 2 || len(got.Rows) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Rows[1][1] != "4.5" {
		t.Fatalf("cell: %+v", got.Rows)
	}

	// -out directory mode writes .json files.
	dir := t.TempDir()
	if err := emit(tbl, "json", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "demo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("directory emit not valid JSON: %q", data)
	}
}
