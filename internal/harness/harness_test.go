package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps harness tests fast; shape checks at realistic scale live
// in the benchmarks (README.md, "Departures from the paper", on the
// missing paper-vs-measured table).
func tinyScale() Scale {
	return Scale{
		Seed:        42,
		Pages:       1024,
		Queries:     60,
		Runs:        1,
		Fig3Updates: 500,
		Fig7Views:   3,
		Fig7Batches: []int{100, 1000},
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")

	var tsv bytes.Buffer
	if err := tbl.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tsv.String()), "\n")
	if len(lines) != 4 || lines[1] != "a\tbb" || lines[2] != "1\t2" {
		t.Fatalf("TSV:\n%s", tsv.String())
	}

	var txt bytes.Buffer
	if err := tbl.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "demo") || !strings.Contains(txt.String(), "333") {
		t.Fatalf("text:\n%s", txt.String())
	}
}

func TestFormattingHelpers(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.500" {
		t.Fatalf("ms = %q", got)
	}
	if got := secs(2500 * time.Millisecond); got != "2.50" {
		t.Fatalf("secs = %q", got)
	}
	if got := pct(0.1234); got != "12.34" {
		t.Fatalf("pct = %q", got)
	}
	if avg(nil) != 0 {
		t.Fatal("avg(nil) != 0")
	}
	if got := avg([]time.Duration{time.Second, 3 * time.Second}); got != 2*time.Second {
		t.Fatalf("avg = %v", got)
	}
}

func TestRunFig2(t *testing.T) {
	tbl := RunFig2(tinyScale())
	if len(tbl.Rows) != 300 {
		t.Fatalf("fig2 rows = %d, want 300", len(tbl.Rows))
	}
	if len(tbl.Header) != 10 {
		t.Fatalf("fig2 header = %v", tbl.Header)
	}
	// Linear means increase over pages.
	first, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tbl.Rows[299][1], 64)
	if first >= last {
		t.Fatalf("linear means not increasing: %v -> %v", first, last)
	}
}

func TestRunFig3(t *testing.T) {
	tbl, err := RunFig3(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(fig3Ks) {
		t.Fatalf("fig3 rows = %d, want %d", len(tbl.Rows), len(fig3Ks))
	}
	// Index selectivity must grow with k.
	prev := -1.0
	for _, r := range tbl.Rows {
		sel, err := strconv.ParseFloat(r[1], 64)
		if err != nil || sel <= prev {
			t.Fatalf("selectivity column broken: %v (prev %v, err %v)", r, prev, err)
		}
		prev = sel
	}
}

func TestRunFig4(t *testing.T) {
	for _, d := range []string{"sine", "linear", "sparse"} {
		res, err := RunFig4(tinyScale(), d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(res.Table.Rows) != 60 {
			t.Fatalf("%s: rows = %d", d, len(res.Table.Rows))
		}
		if res.AdaptiveTotal <= 0 || res.BaselineTotal <= 0 {
			t.Fatalf("%s: totals %v/%v", d, res.AdaptiveTotal, res.BaselineTotal)
		}
		// Adaptivity shape: the minimum scanned-pages value over the
		// sequence must be well below a full scan.
		minPages := 1 << 30
		for _, r := range res.Table.Rows {
			p, _ := strconv.Atoi(r[3])
			if p < minPages {
				minPages = p
			}
		}
		if minPages >= 1024 {
			t.Fatalf("%s: no query ever used a partial view (min scanned = %d)", d, minPages)
		}
	}
}

// TestRunFig4ScenarioDistributions: the fig4 harness accepts every
// registered distribution, including the scenario generators beyond the
// paper (asvbench fig4d-f), and the adaptive results stay consistent with
// the baseline (runSequence cross-checks count and sum per query).
func TestRunFig4ScenarioDistributions(t *testing.T) {
	for _, d := range []string{"hotspot", "clustered", "shifted", "zipf"} {
		res, err := RunFig4(tinyScale(), d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(res.Table.Rows) != 60 {
			t.Fatalf("%s: rows = %d", d, len(res.Table.Rows))
		}
		if res.AdaptiveTotal <= 0 || res.BaselineTotal <= 0 {
			t.Fatalf("%s: totals %v/%v", d, res.AdaptiveTotal, res.BaselineTotal)
		}
	}
	if _, err := RunFig4(tinyScale(), "no-such-dist"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestRunFig5(t *testing.T) {
	// Stitching needs enough queries for overlapping coverage to build up;
	// at 1024 pages that takes a couple hundred queries.
	sc := tinyScale()
	sc.Queries = 250
	res, err := RunFig5(sc, 0.01, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Header[3] != "views_used" {
		t.Fatalf("header: %v", res.Table.Header)
	}
	// At least one late query must use >= 1 partial view without a full
	// scan; and views-used must exceed 1 somewhere once coverage builds
	// (multi-view mode).
	maxViews := 0
	for _, r := range res.Table.Rows {
		v, _ := strconv.Atoi(r[3])
		if v > maxViews {
			maxViews = v
		}
	}
	if maxViews < 2 {
		t.Fatalf("multi-view mode never stitched views (max used = %d)", maxViews)
	}
}

func TestRunFig6(t *testing.T) {
	for _, d := range []string{"uniform", "sine"} {
		tbl, err := RunFig6(tinyScale(), d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(tbl.Rows) != 4 {
			t.Fatalf("%s: rows = %d, want 4 variants", d, len(tbl.Rows))
		}
		// All variants index the same number of pages.
		for _, r := range tbl.Rows[1:] {
			if r[2] != tbl.Rows[0][2] {
				t.Fatalf("%s: page counts differ across variants: %v", d, tbl.Rows)
			}
		}
		// Consecutive mapping must issue fewer mmap calls than unoptimized.
		unopt, _ := strconv.Atoi(tbl.Rows[0][3])
		consec, _ := strconv.Atoi(tbl.Rows[1][3])
		if consec >= unopt {
			t.Fatalf("%s: consecutive used %d calls, unoptimized %d", d, consec, unopt)
		}
	}
	if _, err := RunFig6(tinyScale(), "zipf"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestRunFig7(t *testing.T) {
	for _, d := range []string{"uniform", "sine"} {
		tbl, err := RunFig7(tinyScale(), d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(tbl.Rows) != 2 {
			t.Fatalf("%s: rows = %d", d, len(tbl.Rows))
		}
		for _, r := range tbl.Rows {
			lines, _ := strconv.Atoi(r[7])
			if lines == 0 {
				t.Fatalf("%s: maps file empty: %v", d, r)
			}
		}
	}
	if _, err := RunFig7(tinyScale(), "zipf"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestRunTable1(t *testing.T) {
	sc := tinyScale()
	sc.Queries = 30
	tbl, err := RunTable1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("table1 rows = %d, want 5", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if _, err := strconv.ParseFloat(r[3], 64); err != nil {
			t.Fatalf("speedup column broken: %v", r)
		}
	}
}
