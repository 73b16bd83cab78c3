package asv_test

import (
	"testing"

	asv "github.com/asv-db/asv"
)

// TestGeneratorFacade: the public constructors and the name registry
// cover the same generator family, and FillParallel produces the same
// column as Fill through the facade.
func TestGeneratorFacade(t *testing.T) {
	names := asv.GeneratorNames()
	if len(names) < 7 {
		t.Fatalf("GeneratorNames: %d names, want >= 7: %v", len(names), names)
	}
	if _, err := asv.GeneratorByName("no-such-dist", 1, 0, 100, 8); err == nil {
		t.Fatal("unknown generator name accepted")
	}

	gens := map[string]asv.Generator{
		"uniform":   asv.Uniform(1, 0, 1_000_000),
		"linear":    asv.Linear(1, 0, 1_000_000, 64),
		"sine":      asv.Sine(1, 0, 1_000_000, 10),
		"sparse":    asv.Sparse(1, 0, 1_000_000, 0.5),
		"zipf":      asv.Zipf(1, 0, 1_000_000, 1.1),
		"hotspot":   asv.Hotspot(1, 0, 1_000_000, 0.1, 0.9),
		"clustered": asv.Clustered(1, 0, 1_000_000, 1.0/64),
		"shifted":   asv.Shifted(1, 0, 1_000_000, 10),
	}
	for name, g := range gens {
		buf := make([]uint64, asv.ValuesPerPage)
		g.FillPage(0, buf)
		for _, v := range buf {
			if v > 1_000_000 {
				t.Fatalf("%s: value %d out of bounds", name, v)
			}
		}
		if _, err := asv.GeneratorByName(name, 1, 0, 1_000_000, 64); err != nil {
			t.Fatalf("constructor %s has no ByName entry: %v", name, err)
		}
	}
}

func TestFillParallelThroughFacade(t *testing.T) {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	serial, err := db.CreateColumn("serial", 128, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Fill(asv.Zipf(9, 0, 1_000_000, 1.1)); err != nil {
		t.Fatal(err)
	}
	par, err := db.CreateColumn("par", 128, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := par.FillParallel(asv.Zipf(9, 0, 1_000_000, 1.1)); err != nil {
		t.Fatal(err)
	}
	for row := 0; row < serial.Rows(); row += 97 {
		a, err := serial.Value(row)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Value(row)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("row %d: serial %d != parallel %d", row, a, b)
		}
	}

	// Scenario columns answer adaptive queries like paper columns do.
	res, err := par.QueryOpt(0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Fatal("zipf column: low range returned no rows despite skew")
	}
}
