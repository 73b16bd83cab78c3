package asv

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTieredScanEquivalence: a tiered column answers every query
// byte-identically to an untiered twin over all generators, lazy and
// eager — before demotion, with every page demoted to the capacity
// tier, and after the scans' touches promoted pages back under budget.
func TestTieredScanEquivalence(t *testing.T) {
	const pages = 64
	for _, mode := range []struct {
		name string
		lazy bool
	}{{"lazy", true}, {"eager", false}} {
		for _, gname := range GeneratorNames() {
			t.Run(mode.name+"/"+gname, func(t *testing.T) {
				db, err := Open(Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				cfg := DefaultConfig()
				cfg.Create.Lazy = mode.lazy
				tiered, err := db.CreateColumn("tiered", pages,
					WithTiering(cfg, TierConfig{HotFrames: pages / 4, NoStall: true}))
				if err != nil {
					t.Fatal(err)
				}
				plain, err := db.CreateColumn("plain", pages, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, col := range []*Column{tiered, plain} {
					g, err := GeneratorByName(gname, 42, 0, 1_000_000, pages)
					if err != nil {
						t.Fatal(err)
					}
					if err := col.Fill(g); err != nil {
						t.Fatal(err)
					}
				}
				check := func(stage string) {
					t.Helper()
					for i := 0; i < 20; i++ {
						lo := uint64(i*83651) % 900_000
						hi := lo + 100_000
						rt, err := tiered.QueryOpt(lo, hi)
						if err != nil {
							t.Fatal(err)
						}
						rp, err := plain.QueryOpt(lo, hi)
						if err != nil {
							t.Fatal(err)
						}
						if rt.Count != rp.Count || rt.Sum != rp.Sum {
							t.Fatalf("%s query %d: tiered (%d,%d) != plain (%d,%d)",
								stage, i, rt.Count, rt.Sum, rp.Count, rp.Sum)
						}
					}
				}
				check("hot")
				tier := tiered.eng.Tier()
				for p := 0; p < pages; p++ {
					tier.Demote(p)
				}
				check("cold")

				ms := tiered.MemoryStats()
				if !ms.Tiered || ms.Demotions < pages || ms.ColdTouches == 0 || ms.StallNanos == 0 {
					t.Fatalf("tiered MemoryStats left no trace: %+v", ms)
				}
				if ms.HotFrames+ms.ColdFrames != ms.Pages {
					t.Fatalf("occupancy does not cover pages: %+v", ms)
				}
				mp := plain.MemoryStats()
				if mp.Tiered || mp.HotFraction != 1 || mp.HotFrames != pages {
					t.Fatalf("untiered MemoryStats: %+v", mp)
				}
			})
		}
	}
}

// TestCreateViewWrapperEquivalence: one pinned CreateViewOpt per range
// must be byte-equivalent to a single call that Batches the same ranges —
// same view set, same telemetry, same pin flags — except that the batch
// publishes once; and CreateViewOpt without Pinned builds demotable views.
func TestCreateViewWrapperEquivalence(t *testing.T) {
	const pages = 64
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ranges := []ViewRange{
		{Lo: 100_000, Hi: 200_000},
		{Lo: 400_000, Hi: 500_000},
		{Lo: 700_000, Hi: 800_000},
	}
	newCol := func(name string) *Column {
		col, err := db.CreateColumn(name, pages, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Fill(Sine(11, 0, 1_000_000, 8)); err != nil {
			t.Fatal(err)
		}
		return col
	}

	perRange := newCol("per-range")
	for _, r := range ranges {
		if err := perRange.CreateViewOpt(r.Lo, r.Hi, Pinned()); err != nil {
			t.Fatal(err)
		}
	}
	batched := newCol("batched")
	if err := batched.CreateViewOpt(ranges[0].Lo, ranges[0].Hi, Batch(ranges[1:]...), Pinned()); err != nil {
		t.Fatal(err)
	}

	want := perRange.Views()
	if len(want) != len(ranges) {
		t.Fatalf("per-range views: %d, want %d", len(want), len(ranges))
	}
	if got := batched.Views(); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched views %+v != per-range %+v", got, want)
	}
	got, wantStats := batched.Stats(), perRange.Stats()
	if got.StatePublishes != 1 || wantStats.StatePublishes != uint64(len(ranges)) {
		t.Fatalf("publishes: batched %d, per-range %d; want 1 and %d",
			got.StatePublishes, wantStats.StatePublishes, len(ranges))
	}
	// Publication count and wall time are the batch's saving.
	got.StatePublishes, wantStats.StatePublishes = 0, 0
	got.PublishNanos, wantStats.PublishNanos = 0, 0
	if got != wantStats {
		t.Fatalf("batched telemetry %+v != per-range %+v", got, wantStats)
	}
	for name, col := range map[string]*Column{"per-range": perRange, "batched": batched} {
		for i, v := range col.eng.Views() {
			if !v.Pinned() {
				t.Fatalf("%s view %d not pinned", name, i)
			}
		}
	}

	// Without Pinned, CreateViewOpt builds demotable views.
	loose := newCol("loose")
	if err := loose.CreateViewOpt(ranges[0].Lo, ranges[0].Hi); err != nil {
		t.Fatal(err)
	}
	if loose.eng.Views()[0].Pinned() {
		t.Fatal("optionless CreateViewOpt pinned its view")
	}

	// Lazy/Eager override the column default per call.
	if err := loose.CreateViewOpt(ranges[1].Lo, ranges[1].Hi, Eager()); err != nil {
		t.Fatal(err)
	}
	vs := loose.eng.Views()
	if vs[0].LazyFilePages() == nil {
		t.Fatal("default view not lazy under Config.Create.Lazy")
	}
	if vs[1].LazyFilePages() != nil {
		t.Fatal("Eager() view is lazy")
	}
}

// TestTieredSnapshotRace races tier demotion/promotion, pinned Snapshot
// readers, live queries, fire-and-forget updates and the autopilot's
// lifecycle against each other. Snapshot reads must stay repeatable and
// live answers must match an untiered twin column throughout. Runs under
// -race in CI's stress step (matched by both 'Snapshot' and 'Tiered').
func TestTieredSnapshotRace(t *testing.T) {
	const pages = 96
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cfg := WithTiering(
		WithAutopilot(DefaultConfig(), AutopilotConfig{
			MaintainInterval: time.Millisecond,
			MaxFlushLatency:  time.Millisecond,
		}),
		TierConfig{HotFrames: pages / 2, NoStall: true},
	)
	col, err := db.CreateColumn("hot", pages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(Uniform(21, 0, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	tier := col.eng.Tier()

	var stop atomic.Bool
	errs := make(chan error, 16)
	var wg sync.WaitGroup

	// Tier churn: demote and promote pages as fast as possible.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			tier.Demote(i % pages)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			tier.Promote((i * 7) % pages)
		}
	}()

	// Pinned snapshot readers: answers within one snapshot must repeat
	// exactly, no matter what migrates underneath.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				snap, err := col.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				lo := (seed + uint64(i)*131) % 800_000
				hi := lo + 150_000
				first, err := snap.QueryOpt(lo, hi)
				if err == nil {
					var again QueryAnswer
					again, err = snap.QueryOpt(lo, hi)
					if err == nil && (again.Count != first.Count || again.Sum != first.Sum) {
						err = fmt.Errorf("snapshot read moved: (%d,%d) then (%d,%d)",
							first.Count, first.Sum, again.Count, again.Sum)
					}
				}
				snap.Close()
				if err != nil {
					errs <- err
					return
				}
			}
		}(uint64(r) * 977)
	}

	// Live readers and writers.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			lo := uint64(i*211) % 800_000
			if _, err := col.QueryOpt(lo, lo+100_000); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := col.Update((i*37)%col.Rows(), uint64(i)); err != nil {
				errs <- err
				return
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := col.Sync(); err != nil {
		t.Fatal(err)
	}
	ms := col.MemoryStats()
	if !ms.Tiered || ms.HotFrames+ms.ColdFrames != ms.Pages {
		t.Fatalf("inconsistent tier occupancy after the race: %+v", ms)
	}
}
