// Package harness regenerates every table and figure of the paper's
// evaluation (§3). Each Run* function sets up the experiment's column,
// views, and workload, measures what the paper measures, and returns the
// series as a Table that renders to TSV (for plotting) or aligned text.
//
// Absolute numbers are not expected to match the paper — the substrate is
// a simulated kernel on different hardware at a scaled-down column size —
// but the shapes are: who wins, by what factor, and where the crossovers
// fall. No committed table states paper-vs-measured per experiment yet
// (README.md, "Departures from the paper").
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Scale parameterizes experiment sizes. The paper runs on 1M-page (4 GB)
// columns; DefaultScale uses 1/16 of that so the full suite finishes in
// minutes on a laptop. All workload shapes (selectivity fractions, view
// range fractions, query counts) are preserved exactly.
type Scale struct {
	// Seed drives every generator and workload deterministically.
	Seed uint64
	// Pages is the column size in 4 KiB pages (paper: 1,000,000).
	Pages int
	// Queries is the length of the §3.2 query sequences (paper: 250).
	Queries int
	// Runs is how many repetitions are averaged (paper: 3).
	Runs int
	// Fig3Updates is the §3.1 update-stream length (paper: 10,000).
	Fig3Updates int
	// Fig7Views is the number of partial views in §3.4 (paper: 5).
	Fig7Views int
	// Fig7Batches are the §3.4 batch sizes (paper: 100 … 1,000,000 in
	// logarithmic steps).
	Fig7Batches []int
	// Progress receives human-readable progress lines (nil = silent).
	Progress io.Writer
}

// DefaultScale returns the 1/16-scale configuration.
func DefaultScale() Scale {
	return Scale{
		Seed:        42,
		Pages:       65536,
		Queries:     250,
		Runs:        3,
		Fig3Updates: 10000,
		Fig7Views:   5,
		Fig7Batches: []int{100, 1000, 10000, 100000, 1000000},
	}
}

func (s Scale) logf(format string, args ...any) {
	if s.Progress != nil {
		fmt.Fprintf(s.Progress, format+"\n", args...)
	}
}

// Table is a rendered experiment result: a titled grid of cells.
type Table struct {
	ID     string // experiment identifier, e.g. "fig3"
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteTSV renders the table as tab-separated values with a header line.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, "\t")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders the table with aligned columns for terminals.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// ms formats a duration as fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

// secs formats a duration as fractional seconds.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a fraction as a percentage with two decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f", v*100) }

// avg returns the mean of the measured durations.
func avg(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
