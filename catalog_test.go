package asv

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentCatalog grows the schema online from many goroutines —
// the -race exercise of the catalog mutex: concurrent CreateColumn /
// CreateTable / lookups / per-column work must neither race nor admit a
// duplicate name.
func TestConcurrentCatalog(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		goroutines = 8
		perG       = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("col-%d-%d", g, i)
				col, err := db.CreateColumn(name, 16, DefaultConfig())
				if err != nil {
					errs <- err
					return
				}
				if err := col.Fill(Uniform(uint64(g*100+i), 0, 1_000_000)); err != nil {
					errs <- err
					return
				}
				if _, err := col.QueryOpt(0, 500_000); err != nil {
					errs <- err
					return
				}
				if _, ok := db.Column(name); !ok {
					errs <- fmt.Errorf("column %q vanished", name)
					return
				}
				if g%2 == 0 {
					tname := fmt.Sprintf("tbl-%d-%d", g, i)
					tbl, err := db.CreateTable(tname, 8, []string{"a", "b"}, DefaultConfig())
					if err != nil {
						errs <- err
						return
					}
					if _, ok := db.Table(tname); !ok {
						errs <- fmt.Errorf("table %q vanished", tname)
						return
					}
					_ = tbl
				}
			}
		}(g)
	}
	// Duplicate creators: exactly one of each racing pair must win.
	dupWins := make(chan bool, 2*goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := db.CreateColumn("contested", 8, DefaultConfig())
			dupWins <- err == nil
		}()
	}
	wg.Wait()
	close(errs)
	close(dupWins)
	for err := range errs {
		t.Fatal(err)
	}
	wins := 0
	for won := range dupWins {
		if won {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d goroutines created the contested column, want exactly 1", wins)
	}
	if db.MemoryInUse() <= 0 {
		t.Fatal("no memory accounted")
	}
}
