package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// declared is one metric of BENCHMARK.json.
type declared struct{ Name, Unit string }

// benchmarkFile is BENCHMARK.json as the smoke test reads it.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declared              `json:"end_to_end"`
	PerLayer  []declared              `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine is the contract's result object.
type lastLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func smokeRun(t *testing.T, out, workload, trace string) lastLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", trace, "--smoke", "--out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res lastLine
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace %s: last line: %v", workload, trace, err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || !*res.Correct || *res.Attempted < 1 || *res.Failed != 0 {
		t.Fatalf("%s trace %s: result %s", workload, trace, lines[len(lines)-1])
	}
	return res
}

// TestSmoke runs every workload, the traced pass and the ladder at 512
// pages and holds the output against BENCHMARK.json: the same workloads,
// exactly the declared metrics with their units, well-formed names.
func TestSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("TestRaceSmoke covers the concurrent code under the race detector")
	}
	start := time.Now()
	spec := readBenchmarkFile(t)
	out := t.TempDir()
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, asvperf has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || !wellFormed.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, asvperf %q", i, w.Name, workloadNames[i])
		}
		for trace, declared := range [][]declared{spec.EndToEnd, spec.PerLayer} {
			res := smokeRun(t, out, w.Name, []string{"0", "1"}[trace])
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				switch {
				case !wellFormed.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				case !ok || m.Value == nil:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
				case trace == 0 && *m.Value <= 0:
					t.Errorf("%s %s: end-to-end metric is %v", w.Name, d.Name, *m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Error(err)
		}
	}
	t.Logf("smoke took %s", time.Since(start))
}

// TestMixedUpdateCountsRepeat runs the single-goroutine workload's traced
// pass twice: every exact count must come out identical, and --compare must
// say so.
func TestMixedUpdateCountsRepeat(t *testing.T) {
	if raceEnabled {
		t.Skip("single goroutine: nothing for the race detector")
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	var sets []string
	var runs [2]lastLine
	for i, dir := range dirs {
		runs[i] = smokeRun(t, dir, mixedUpdate, "1")
		// One result file is a run set of one run.
		sets = append(sets, filepath.Join(dir, mixedUpdate+"-trace1-seed5.json"))
	}
	for _, d := range perLayer {
		if a, b := *runs[0].Metrics[d.name].Value, *runs[1].Metrics[d.name].Value; d.exact && a != b {
			t.Errorf("%s: %v then %v", d.name, a, b)
		}
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--compare", "--benchmark", filepath.Join("..", "..", "BENCHMARK.json"), sets[0], sets[1]}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Errorf("--compare: exit %d", code)
	}
	if got := stdout.String(); !strings.Contains(got, "identical") || strings.Contains(got, "differs") {
		t.Errorf("--compare on two runs of one seed:\n%s%s", got, stderr.String())
	}
}

// TestRaceSmoke runs, under the race detector, the code of the benchmark's
// own that is concurrent: the two multi-client workloads, untraced and
// traced (serve_http's traced pass shares handler spans between the server's
// goroutines and the clients'). The ladder and the single-goroutine
// workloads are left to TestSmoke, which the detector would stretch to
// minutes.
func TestRaceSmoke(t *testing.T) {
	if !raceEnabled {
		t.Skip("TestSmoke covers this without the race detector")
	}
	sc := smokeScale()
	for _, name := range []string{steadyRead, serveHTTP} {
		w := workloads(sc)[name]
		for _, traced := range []bool{false, true} {
			p, err := w.run(sc, 5, 0, true, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if p.log.failed != 0 || p.tail.failed != 0 || p.log.queries == 0 || p.checks == 0 {
				t.Errorf("%s traced=%v: %d queries, %d+%d failed, %d oracle checks",
					name, traced, p.log.queries, p.log.failed, p.tail.failed, p.checks)
			}
			if traced && len(p.log.ops) != p.log.queries {
				t.Errorf("%s: %d op records for %d queries", name, len(p.log.ops), p.log.queries)
			}
		}
	}
}

func TestPercentileGuard(t *testing.T) {
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(i + 1)
	}
	if got, err := percentile(samples, 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if _, err := percentile(samples[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(samples[:99], 0.90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
