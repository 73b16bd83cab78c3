// Command asvperf is the repository's performance ruler: four named
// workloads with end-to-end metrics measured untraced, and per-layer
// metrics from a traced pass and a layer ladder. BENCHMARK.json at the
// root of the repository is its contract; bench/README.md defines every
// workload and metric.
//
//	bash bench/run.sh --workload steady_read --seed 7 --seconds 12 --trace 0
//	bash bench/run.sh --workload all --seed 7          # every workload, both passes
//	bash bench/run.sh --compare A.jsonl B.jsonl        # two run sets against the bounds
//
// One invocation measures one workload in a fresh process, so no heap or
// GC state leaks from one workload into the next and mem_sys_mb is the
// workload's own; --workload all re-executes the binary once per workload
// and pass. The last line of standard output is the result as one JSON
// object; a fuller record with the environment stamp goes to --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the record of one run: the last line of standard output holds
// Correct, Attempted, Failed and the metrics' values and units; the file
// written to --out holds all of it.
type result struct {
	Env       env               `json:"env"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Sizes     map[string]int    `json:"sizes"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    int               `json:"oracle_checks"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "adapt_cold, steady_read, mixed_update, serve_http, or all")
		seed    = fs.Uint64("seed", 1, "seed of every generator, query stream and write stream")
		seconds = fs.Float64("seconds", 12, "length of the timed phase")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass and the ladder")
		out     = fs.String("out", "bench/out", "directory of result files, run sets and span dumps")
		runset  = fs.String("runset", "", "with --workload all: run-set file to append to (default <out>/runset-seed<seed>.jsonl)")
		smoke   = fs.Bool("smoke", false, "512-page sizes: every code path in seconds, numbers meaningless")
		compare = fs.Bool("compare", false, "compare two run-set files given as arguments against the bounds of --benchmark")
		spec    = fs.String("benchmark", "BENCHMARK.json", "the benchmark's contract, read by --compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "asvperf:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("--compare takes two run-set files"))
		}
		if err := compareRunSets(stdout, *spec, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	sc := fullScale()
	if *smoke {
		sc = smokeScale()
	}
	if *name == "all" {
		if *runset == "" {
			*runset = filepath.Join(*out, "runset-seed"+strconv.FormatUint(*seed, 10)+".jsonl")
		}
		if err := runAll(stdout, stderr, args, *out, *runset, *seed); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := workloads(sc)[*name]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (known: %v, all)", *name, workloadNames))
	}
	res := result{Env: stamp(), Workload: w.name, Seed: *seed, Trace: *trace, Seconds: *seconds}
	var err error
	if *trace == 0 {
		err = res.measureEndToEnd(w, sc)
	} else {
		err = res.measurePerLayer(w, sc, *out)
	}
	if err != nil {
		return fail(err)
	}
	res.Correct = res.Failed == 0
	if err := res.print(stdout, *out); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return fail(fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	return 0
}

func (r *result) book(w workload, passes ...*pass) {
	for _, p := range passes {
		r.Attempted += p.log.attempted
		r.Failed += p.log.failed
		if p.tail != nil {
			r.Attempted += p.tail.attempted
			r.Failed += p.tail.failed
		}
		r.Checks += p.checks
	}
	p := passes[len(passes)-1]
	r.Sizes = map[string]int{
		"clients": w.clients, "tenants": w.tenants,
		"queries": p.log.queries, "query_samples": len(p.log.queryLat),
		"flush_samples": len(p.log.flushLat), "setups": len(p.setups),
	}
	if p.tail != nil {
		r.Sizes["flush_samples"] = len(p.tail.flushLat)
	}
	r.Sizes["sys_peak_mib"] = int(p.memPeak >> 20)
}

func (r *result) measureEndToEnd(w workload, sc scale) error {
	p, err := w.run(sc, r.Seed, r.Seconds, false, false)
	if err != nil {
		return err
	}
	r.book(w, p)
	r.Metrics, err = endToEndMetrics(p)
	return err
}

// measurePerLayer runs the workload's fixed prefix twice on fresh
// instances of the same seed, untraced and traced, then the ladder. On a
// single-client workload the two prefixes must have done exactly the same
// work, or the counts are not evidence and the run is not correct.
func (r *result) measurePerLayer(w workload, sc scale, out string) error {
	untraced, err := w.run(sc, r.Seed, 0, true, false)
	if err != nil {
		return err
	}
	traced, err := w.run(sc, r.Seed, 0, true, true)
	if err != nil {
		return err
	}
	r.book(w, untraced, traced)
	if w.clients == 1 {
		r.Attempted++
		if !sameCounts(untraced, traced) {
			r.Failed++
		}
	}
	if err := writeTrace(out, traceFile{Env: r.Env, Workload: w.name, Seed: r.Seed, Ops: traced.ops()}); err != nil {
		return err
	}
	values := tracedMetrics(untraced, traced)
	rungs, err := runLadder(sc, r.Seed)
	if err != nil {
		return err
	}
	r.Metrics = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		v, ok := values[d.name]
		if !ok {
			v, ok = rungs[d.name]
		}
		if ok {
			r.Metrics[d.name] = metric{Value: v}
		}
	}
	r.Metrics, err = withUnits(r.Metrics, perLayer)
	return err
}

// print writes the metrics by name with unit and sample count, the full
// record to its file, and the contract's JSON object as the last line.
func (r *result) print(stdout io.Writer, out string) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# %s seed=%d trace=%d nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.Env.NProc, r.Env.GoMaxProcs, r.Env.GoVersion, r.Env.Commit)
	type lastLine struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	brief := make(map[string]lastLine, len(names))
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (%d samples)", m.Samples)
		}
		fmt.Fprintf(stdout, "%-40s %14.4f %-6s%s\n", n, m.Value, m.Unit, samples)
		brief[n] = lastLine{m.Value, m.Unit}
	}
	fmt.Fprintf(stdout, "# attempted=%d failed=%d oracle_checks=%d sizes=%v\n", r.Attempted, r.Failed, r.Checks, r.Sizes)
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	file := filepath.Join(out, fmt.Sprintf("%s-trace%d-seed%d.json", r.Workload, r.Trace, r.Seed))
	if err := os.WriteFile(file, append(full, '\n'), 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": brief,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", last)
	return err
}

// runAll re-executes this binary once per workload and pass, each in a
// fresh process, and appends every result to the run-set file.
func runAll(stdout, stderr io.Writer, args []string, out, runset string, seed uint64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set, err := os.OpenFile(runset, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer set.Close()
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			// Later flags win, so the caller's own flags pass through.
			child := exec.Command(self, append(append([]string(nil), args...),
				"--workload", name, "--trace", strconv.Itoa(trace))...)
			child.Stdout, child.Stderr = stdout, stderr
			if err := child.Run(); err != nil {
				return fmt.Errorf("%s trace %d: %w", name, trace, err)
			}
			rec, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("%s-trace%d-seed%d.json", name, trace, seed)))
			if err != nil {
				return err
			}
			if _, err := set.Write(rec); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stdout, "# run set appended to %s\n", runset)
	return set.Close()
}
