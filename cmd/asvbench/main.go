// Command asvbench regenerates the tables and figures of "Towards Adaptive
// Storage Views in Virtual Memory" (CIDR 2023) on the simulated
// virtual-memory substrate of this repository.
//
// Usage:
//
//	asvbench -experiment fig3                 # one experiment, text output
//	asvbench -experiment all -format tsv      # everything, plot-ready TSV
//	asvbench -experiment table1 -pages 262144 # larger scale
//
// Experiments: fig2, fig3, fig4a, fig4b, fig4c, fig4d, fig4e, fig4f,
// fig5a, fig5b, fig6a, fig6b, fig7a, fig7b, table1, all. fig4d-f run the
// hotspot, clustered and shifted scenario distributions beyond the paper;
// every other id is one of the paper's figures or its table. An unknown
// -experiment name fails with the list of valid names. The default scale
// is 1/16 of the paper's (65,536 pages ≈ 256 MiB per column);
// -pages 1048576 reproduces the paper's full size if you have the memory
// and patience. Measurements beyond the paper are Go benchmarks
// (go test -bench), not experiments here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/asv-db/asv/internal/harness"
)

// experiment binds an ID to its harness runner.
type experiment struct {
	id   string
	desc string
	run  func(harness.Scale) ([]*harness.Table, error)
}

func seqTables(res *harness.SequenceResult, err error) ([]*harness.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*harness.Table{res.Table}, nil
}

func one(t *harness.Table, err error) ([]*harness.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*harness.Table{t}, nil
}

var experiments = []experiment{
	{"fig2", "clustered data distributions", func(s harness.Scale) ([]*harness.Table, error) {
		return []*harness.Table{harness.RunFig2(s)}, nil
	}},
	{"fig3", "explicit vs virtual partial views", func(s harness.Scale) ([]*harness.Table, error) {
		return one(harness.RunFig3(s))
	}},
	{"fig4a", "adaptive single-view, sine", func(s harness.Scale) ([]*harness.Table, error) {
		return seqTables(harness.RunFig4(s, "sine"))
	}},
	{"fig4b", "adaptive single-view, linear", func(s harness.Scale) ([]*harness.Table, error) {
		return seqTables(harness.RunFig4(s, "linear"))
	}},
	{"fig4c", "adaptive single-view, sparse", func(s harness.Scale) ([]*harness.Table, error) {
		return seqTables(harness.RunFig4(s, "sparse"))
	}},
	{"fig4d", "adaptive single-view, hotspot (beyond the paper)", func(s harness.Scale) ([]*harness.Table, error) {
		return seqTables(harness.RunFig4(s, "hotspot"))
	}},
	{"fig4e", "adaptive single-view, clustered (beyond the paper)", func(s harness.Scale) ([]*harness.Table, error) {
		return seqTables(harness.RunFig4(s, "clustered"))
	}},
	{"fig4f", "adaptive single-view, shifted (beyond the paper)", func(s harness.Scale) ([]*harness.Table, error) {
		return seqTables(harness.RunFig4(s, "shifted"))
	}},
	{"fig5a", "adaptive multi-view, sine, sel 1%", func(s harness.Scale) ([]*harness.Table, error) {
		return seqTables(harness.RunFig5(s, 0.01, 200))
	}},
	{"fig5b", "adaptive multi-view, sine, sel 10%", func(s harness.Scale) ([]*harness.Table, error) {
		return seqTables(harness.RunFig5(s, 0.10, 20))
	}},
	{"fig6a", "view-creation optimizations, uniform", func(s harness.Scale) ([]*harness.Table, error) {
		return one(harness.RunFig6(s, "uniform"))
	}},
	{"fig6b", "view-creation optimizations, sine", func(s harness.Scale) ([]*harness.Table, error) {
		return one(harness.RunFig6(s, "sine"))
	}},
	{"fig7a", "update performance, uniform", func(s harness.Scale) ([]*harness.Table, error) {
		return one(harness.RunFig7(s, "uniform"))
	}},
	{"fig7b", "update performance, sine", func(s harness.Scale) ([]*harness.Table, error) {
		return one(harness.RunFig7(s, "sine"))
	}},
	{"table1", "accumulated response times (runs fig4a-c, fig5a-b)", func(s harness.Scale) ([]*harness.Table, error) {
		return one(harness.RunTable1(s))
	}},
}

func main() {
	var (
		expID   = flag.String("experiment", "", "experiment to run (see -list)")
		list    = flag.Bool("list", false, "list experiments and exit")
		pages   = flag.Int("pages", 0, "column size in 4KiB pages (default 65536; paper used 1048576)")
		queries = flag.Int("queries", 0, "query sequence length (default 250)")
		runs    = flag.Int("runs", 0, "repetitions to average (default 3)")
		seed    = flag.Uint64("seed", 0, "workload seed (default 42)")
		format  = flag.String("format", "text", "output format: text or tsv")
		outDir  = flag.String("out", "", "write one <experiment>.tsv per table into this directory")
		quiet   = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.id, e.desc)
		}
		fmt.Println("  all      run every experiment")
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "asvbench: -experiment is required (try -list)")
		os.Exit(2)
	}
	if *format != "text" && *format != "tsv" {
		fmt.Fprintln(os.Stderr, "asvbench: -format must be text or tsv")
		os.Exit(2)
	}

	sc := harness.DefaultScale()
	if *pages > 0 {
		sc.Pages = *pages
	}
	if *queries > 0 {
		sc.Queries = *queries
	}
	if *runs > 0 {
		sc.Runs = *runs
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if !*quiet {
		sc.Progress = os.Stderr
	}

	selected, err := selectExperiments(*expID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asvbench:", err)
		os.Exit(2)
	}

	for _, e := range selected {
		start := time.Now()
		tables, err := e.run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asvbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s finished in %s\n", e.id, time.Since(start).Round(time.Millisecond))
		}
		for _, t := range tables {
			if err := emit(t, *format, *outDir); err != nil {
				fmt.Fprintf(os.Stderr, "asvbench: writing %s: %v\n", t.ID, err)
				os.Exit(1)
			}
		}
	}
}

func selectExperiments(id string) ([]experiment, error) {
	if id == "all" {
		return experiments, nil
	}
	var out []experiment
	for _, want := range strings.Split(id, ",") {
		found := false
		for _, e := range experiments {
			if e.id == want {
				out = append(out, e)
				found = true
				break
			}
		}
		if !found {
			var ids []string
			for _, e := range experiments {
				ids = append(ids, e.id)
			}
			sort.Strings(ids)
			return nil, fmt.Errorf("unknown experiment %q (known: %s, all)", want, strings.Join(ids, ", "))
		}
	}
	return out, nil
}

func emit(t *harness.Table, format, outDir string) error {
	var w io.Writer = os.Stdout
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(outDir, t.ID+".tsv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return t.WriteTSV(f)
	}
	if format == "tsv" {
		return t.WriteTSV(w)
	}
	if err := t.WriteText(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
