// Command asvdiff compares two asvbench -json outputs and fails when a
// throughput panel regressed — the nightly bench gate that turns the CI
// artifact trajectory into an actual guard.
//
// Usage:
//
//	asvdiff -old prev/concurrent.json -new bench-out/concurrent.json
//	asvdiff -old prev/updates.json -new bench-out/updates.json -max-regress 15
//
// Both inputs hold one or more JSON panel objects (the asvbench -json
// shape: id, title, header, rows). Panels are matched by id and rows by
// their key cells (every column that is not a measurement). Rate columns
// — headers ending in _qps, _upds or _pps, all higher-is-better — are
// compared cell-wise: a drop of more than -max-regress percent against
// the old value is a regression and exits 1. Gated latency columns —
// headers ending in _p99_ms, lower-is-better — apply the same rule with
// the sign flipped: a rise beyond the threshold fails. Other _ms, _pct
// and _avg columns are informational, as are bare _p99 columns and the
// p99s of any histograms in a panel's embedded telemetry block — those
// are printed for trend-watching but never fail the gate (log₂ bucket
// quantization makes them too coarse to gate on). Panels or rows present
// only on one side are reported and skipped, so adding a panel or
// sweeping new cells never fails the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/asv-db/asv/internal/obs"
)

// panel is the asvbench -json object shape.
type panel struct {
	ID        string        `json:"id"`
	Title     string        `json:"title"`
	Header    []string      `json:"header"`
	Rows      [][]string    `json:"rows"`
	Telemetry *obs.Snapshot `json:"telemetry"`
}

// rateSuffixes mark higher-is-better throughput columns.
var rateSuffixes = []string{"_qps", "_upds", "_pps"}

func isRateColumn(name string) bool {
	for _, s := range rateSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// latencySuffixes mark gated lower-is-better columns: the autopilot
// panel's tail flush latency and the many-views panel's publication
// latency. A rise beyond -max-regress percent is a regression,
// mirroring the throughput rule with the sign flipped. Plain
// informational durations keep the bare `_ms` suffix (p50 stays
// ungated: medians under coalescing legitimately swing with batch
// shape; the latency *bound* is a tail property).
var latencySuffixes = []string{"_p99_ms", "_pub_ms"}

func isLatencyColumn(name string) bool {
	for _, s := range latencySuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// measurementSuffixes mark columns that are measured outputs rather than
// sweep coordinates; they never take part in row keys (a jittery
// measurement in the key would make every row look new and mute the
// gate). Rates and gated latencies are compared; the rest —
// percentages, plain durations, nanosecond totals (the tiered panel's
// simulated stall) and averages — are informational.
var measurementSuffixes = []string{"_pct", "_ms", "_ns", "_avg", "_p99"}

func isMeasurementColumn(name string) bool {
	if isRateColumn(name) {
		return true
	}
	for _, s := range measurementSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// parsePanels decodes a stream of panel objects.
func parsePanels(r io.Reader) ([]panel, error) {
	dec := json.NewDecoder(r)
	var out []panel
	for {
		var p panel
		if err := dec.Decode(&p); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		if p.ID == "" || len(p.Header) == 0 {
			return nil, fmt.Errorf("object without id/header (not an asvbench panel?)")
		}
		out = append(out, p)
	}
}

// rowKey joins a row's sweep-coordinate cells (every column that is not
// a measurement).
func rowKey(header, row []string) string {
	var parts []string
	for i, h := range header {
		if i < len(row) && !isMeasurementColumn(h) {
			parts = append(parts, h+"="+row[i])
		}
	}
	return strings.Join(parts, " ")
}

// finding is one compared cell.
type finding struct {
	line       string
	regression bool
}

// comparePanels diffs every new panel against its old counterpart and
// returns the per-cell report. maxRegress is the tolerated drop in
// percent.
func comparePanels(old, new []panel, maxRegress float64) (findings []finding, regressed bool) {
	oldByID := map[string]panel{}
	for _, p := range old {
		oldByID[p.ID] = p
	}
	for _, np := range new {
		op, ok := oldByID[np.ID]
		if !ok {
			findings = append(findings, finding{line: fmt.Sprintf("%s: no previous panel — skipped", np.ID)})
			continue
		}
		oldCol := map[string]int{}
		for i, h := range op.Header {
			oldCol[h] = i
		}
		oldRows := map[string][]string{}
		for _, r := range op.Rows {
			oldRows[rowKey(op.Header, r)] = r
		}
		for _, nr := range np.Rows {
			key := rowKey(np.Header, nr)
			or, ok := oldRows[key]
			if !ok {
				findings = append(findings, finding{line: fmt.Sprintf("%s [%s]: new cell — skipped", np.ID, key)})
				continue
			}
			for i, h := range np.Header {
				rate, latency := isRateColumn(h), isLatencyColumn(h)
				// Bare _p99 columns (histogram-derived, bucket-quantized)
				// are diffed but never gated.
				info := !rate && !latency && strings.HasSuffix(h, "_p99")
				if (!rate && !latency && !info) || i >= len(nr) {
					continue
				}
				oi, ok := oldCol[h]
				if !ok || oi >= len(or) {
					continue
				}
				oldV, err1 := strconv.ParseFloat(or[oi], 64)
				newV, err2 := strconv.ParseFloat(nr[i], 64)
				if err1 != nil || err2 != nil || oldV <= 0 {
					continue
				}
				deltaPct := (newV/oldV - 1) * 100
				line := fmt.Sprintf("%s [%s] %s: %.2f -> %.2f (%+.1f%%)", np.ID, key, h, oldV, newV, deltaPct)
				if info {
					findings = append(findings, finding{line: line + "  informational"})
					continue
				}
				// Throughput regresses downward, latency upward.
				bad := deltaPct < -maxRegress
				if latency {
					bad = deltaPct > maxRegress
				}
				if bad {
					line += "  REGRESSION"
					regressed = true
				}
				findings = append(findings, finding{line: line, regression: bad})
			}
		}
		findings = append(findings, telemetryFindings(op, np)...)
	}
	return findings, regressed
}

// telemetryFindings diffs the p99 of every histogram present in both
// panels' embedded telemetry blocks. Always informational: log₂ bucket
// bounds move in factor-of-two steps, so a one-bucket shift reads as
// ±100% — a trend signal, not a gate.
func telemetryFindings(op, np panel) []finding {
	if op.Telemetry == nil || np.Telemetry == nil {
		return nil
	}
	names := make([]string, 0, len(np.Telemetry.Histograms))
	for name := range np.Telemetry.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []finding
	for _, name := range names {
		nh := np.Telemetry.Histograms[name]
		oh, ok := op.Telemetry.Histograms[name]
		if !ok || oh.Count == 0 || nh.Count == 0 {
			continue
		}
		oldP, newP := oh.Quantile(0.99), nh.Quantile(0.99)
		if oldP == 0 {
			continue
		}
		deltaPct := (float64(newP)/float64(oldP) - 1) * 100
		out = append(out, finding{line: fmt.Sprintf("%s telemetry %s_p99: %d -> %d (%+.1f%%)  informational",
			np.ID, name, oldP, newP, deltaPct)})
	}
	return out
}

func run(oldPath, newPath string, maxRegress float64, w io.Writer) (bool, error) {
	readPanels := func(path string) ([]panel, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ps, err := parsePanels(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return ps, nil
	}
	old, err := readPanels(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readPanels(newPath)
	if err != nil {
		return false, err
	}
	findings, regressed := comparePanels(old, cur, maxRegress)
	for _, f := range findings {
		fmt.Fprintln(w, f.line)
	}
	return regressed, nil
}

func main() {
	var (
		oldPath    = flag.String("old", "", "previous asvbench -json output (required)")
		newPath    = flag.String("new", "", "current asvbench -json output (required)")
		maxRegress = flag.Float64("max-regress", 15, "tolerated throughput drop in percent before failing")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "asvdiff: -old and -new are required")
		os.Exit(2)
	}
	regressed, err := run(*oldPath, *newPath, *maxRegress, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asvdiff:", err)
		os.Exit(2)
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "asvdiff: throughput regressed by more than %.0f%%\n", *maxRegress)
		os.Exit(1)
	}
}
