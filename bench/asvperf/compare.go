package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contract is the part of BENCHMARK.json that --compare reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRunSet reads one result per line.
func readRunSet(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// cell collects one metric of one workload over the runs of a set.
func cell(runs []result, workload string, trace int, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for a single run.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	return (quartile(v, 3) - quartile(v, 1)) / median(v)
}

// compareRunSets prints, for every (end-to-end metric, workload) cell, the
// medians of run sets A and B and a verdict against the metric's bound:
// unresolved when either side's own spread is wider than the bound,
// regressed when B's median is worse than A's by more than the bound, else
// within-bound. Then, for the single-client workloads, whether the exact
// counts of the traced pass are identical across the two sets.
func compareRunSets(w io.Writer, specPath, pathA, pathB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spreadA", "spreadB", "bound", "verdict")
	for _, name := range workloadNames {
		for _, m := range c.EndToEnd {
			va, vb := cell(a, name, 0, m.Name), cell(b, name, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "within-bound"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-13s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	for _, name := range []string{adaptCold, mixedUpdate} {
		for _, d := range perLayer {
			va, vb := cell(a, name, 1, d.name), cell(b, name, 1, d.name)
			if !d.exact || len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := "identical"
			for _, v := range append(va, vb...) {
				if v != va[0] {
					verdict = "differs"
					regressed++
					break
				}
			}
			fmt.Fprintf(w, "%-13s %-40s %14.4f  %s\n", name, d.name, va[0], verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d cells regressed or differ", regressed)
	}
	return nil
}
