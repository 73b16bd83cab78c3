package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/workload"
	"github.com/asv-db/asv/internal/xrand"
)

const (
	eqPages  = 32
	eqDomain = 100_000_000
	eqSeed   = 42
)

// refAnswer is the comparable part of a query answer: the data a client
// observes. Routing telemetry (pages scanned, views used) legitimately
// differs between one engine and N — each shard adapts its own view set.
type refAnswer struct {
	Count int
	Sum   uint64
	Rows  []int
	Agg   asv.AggregateResult
}

func dataAnswer(ans asv.QueryAnswer) refAnswer {
	a := refAnswer{Count: ans.Count, Sum: ans.Sum}
	if ans.Rows != nil {
		a.Rows = ans.Rows.Rows()
	}
	if ans.Agg != nil {
		a.Agg = *ans.Agg
	}
	return a
}

// eqQueries is the deterministic probe set: a fixed-selectivity stream
// plus the edge ranges (full domain, empty range, single value).
func eqQueries() []workload.Query {
	qs := workload.FixedSelectivity(eqSeed, 12, eqDomain, 0.05)
	qs = append(qs,
		workload.Query{Lo: 0, Hi: eqDomain},
		workload.Query{Lo: eqDomain + 1, Hi: eqDomain + 2},
		workload.Query{Lo: eqDomain / 2, Hi: eqDomain / 2},
	)
	return qs
}

// TestShardScatterGatherEquivalence pins the shard layer's fidelity
// contract: for every generator, shard count and partitioning, the
// scatter-gathered answers — row sets and every aggregate — are
// byte-identical to a single engine over the same data and to a
// brute-force walk of its rows, before and after an identical update
// batch. The probes cycle through rows-and-aggregate, aggregate-only and
// rows-only queries, which run different page kernels.
func TestShardScatterGatherEquivalence(t *testing.T) {
	for _, name := range dist.Names() {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, part := range []Partitioning{RangeParts, HashParts} {
				t.Run(fmt.Sprintf("%s/%d-%s", name, shards, part), func(t *testing.T) {
					testEquivalence(t, name, shards, part)
				})
			}
		}
	}
}

func testEquivalence(t *testing.T, distName string, shards int, part Partitioning) {
	g, err := dist.ByName(distName, eqSeed, 0, eqDomain, eqPages)
	if err != nil {
		t.Fatal(err)
	}

	refDB, err := asv.Open(asv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer refDB.Close()
	ref, err := refDB.CreateColumn("ref", eqPages, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Fill(g); err != nil {
		t.Fatal(err)
	}

	shardDB, err := asv.Open(asv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer shardDB.Close()
	col, err := NewShardedColumn(shardDB, "sharded", eqPages, shards, part, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(g); err != nil {
		t.Fatal(err)
	}

	// brute answers by walking every row of the reference column: what
	// both engines must return whichever page kernel their query chose.
	brute := func(lo, hi uint64, rows, agg bool) refAnswer {
		var a asv.AggregateResult
		ids := []int{}
		for r := 0; r < ref.Rows(); r++ {
			v, err := ref.Value(r)
			if err != nil {
				t.Fatal(err)
			}
			if v < lo || v > hi {
				continue
			}
			if a.Count == 0 || v < a.Min {
				a.Min = v
			}
			if a.Count == 0 || v > a.Max {
				a.Max = v
			}
			a.Count++
			a.Sum += v
			ids = append(ids, r)
		}
		out := refAnswer{Count: a.Count, Sum: a.Sum}
		if rows {
			out.Rows = ids
		}
		if agg {
			out.Agg = a
		}
		return out
	}
	kinds := []struct {
		rows, agg bool
		opts      []asv.QueryOption
	}{
		{true, true, []asv.QueryOption{asv.Rows(), asv.Aggregate()}},
		{false, true, []asv.QueryOption{asv.Aggregate()}},
		{true, false, []asv.QueryOption{asv.Rows()}},
	}
	compare := func(stage string) {
		t.Helper()
		for qi, q := range eqQueries() {
			kind := kinds[qi%len(kinds)]
			want, err := ref.QueryOpt(q.Lo, q.Hi, kind.opts...)
			if err != nil {
				t.Fatalf("%s q%d: reference: %v", stage, qi, err)
			}
			got, err := col.QueryOpt(q.Lo, q.Hi, kind.opts...)
			if err != nil {
				t.Fatalf("%s q%d: sharded: %v", stage, qi, err)
			}
			if !reflect.DeepEqual(dataAnswer(got), dataAnswer(want)) {
				t.Fatalf("%s q%d [%d, %d]: sharded answer diverged:\n got %+v\nwant %+v",
					stage, qi, q.Lo, q.Hi, dataAnswer(got), dataAnswer(want))
			}
			if b := brute(q.Lo, q.Hi, kind.rows, kind.agg); !reflect.DeepEqual(dataAnswer(want), b) {
				t.Fatalf("%s q%d [%d, %d]: both engines diverged from the brute-force walk:\n got %+v\nwant %+v",
					stage, qi, q.Lo, q.Hi, dataAnswer(want), b)
			}
		}
	}
	compare("fresh")

	// The same update stream through both surfaces, then re-compare.
	ups := workload.UniformUpdates(eqSeed+7, 500, col.Rows(), 0, eqDomain)
	for _, u := range ups {
		if err := ref.Update(u.Row, u.Value); err != nil {
			t.Fatal(err)
		}
		if err := col.Update(u.Row, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := col.Sync(); err != nil {
		t.Fatal(err)
	}
	compare("updated")
}

// TestShardRowMappingRoundTrip pins the page/row bijection of both
// partitionings, including uneven splits.
func TestShardRowMappingRoundTrip(t *testing.T) {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, shards := range []int{1, 3, 5, 8} {
		for _, part := range []Partitioning{RangeParts, HashParts} {
			col, err := NewShardedColumn(db, fmt.Sprintf("m%d%s", shards, part), 13, shards, part, asv.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int]bool)
			for p := 0; p < col.NumPages(); p++ {
				s, local := col.locatePage(p)
				if s < 0 || s >= shards || local < 0 || local >= col.counts[s] {
					t.Fatalf("%d shards %s: page %d -> (%d, %d) out of bounds", shards, part, p, s, local)
				}
				if back := col.globalPage(s, local); back != p {
					t.Fatalf("%d shards %s: page %d -> (%d, %d) -> %d", shards, part, p, s, local, back)
				}
				seen[p] = true
			}
			if len(seen) != col.NumPages() {
				t.Fatalf("%d shards %s: %d of %d pages mapped", shards, part, len(seen), col.NumPages())
			}
			for _, row := range []int{0, 1, asv.ValuesPerPage - 1, asv.ValuesPerPage, col.Rows() - 1} {
				s, local := col.locateRow(row)
				if back := col.globalRow(s, local); back != row {
					t.Fatalf("%d shards %s: row %d -> (%d, %d) -> %d", shards, part, row, s, local, back)
				}
			}
			if err := col.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardSnapshotSingleInstant pins the snapshot contract: all
// per-shard pins observe exactly the writes admitted before the call,
// and the pinned answers stay repeatable while the live column moves.
func TestShardSnapshotSingleInstant(t *testing.T) {
	db, err := asv.Open(asv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := NewShardedColumn(db, "snap", 16, 4, RangeParts, asv.WithAutopilot(asv.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(asv.Uniform(eqSeed, 0, eqDomain)); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(eqSeed)
	for i := 0; i < 256; i++ {
		if err := col.Update(rng.Intn(col.Rows()), rng.Uint64n(eqDomain)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := col.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	before, err := snap.QueryOpt(0, eqDomain, asv.Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	if before.Count != col.Rows() {
		t.Fatalf("pinned full-domain count %d, want %d: a shard missed admitted writes", before.Count, col.Rows())
	}
	for i := 0; i < 1024; i++ {
		if err := col.Update(rng.Intn(col.Rows()), rng.Uint64n(eqDomain)); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.Sync(); err != nil {
		t.Fatal(err)
	}
	after, err := snap.QueryOpt(0, eqDomain, asv.Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dataAnswer(after), dataAnswer(before)) {
		t.Fatalf("pinned reads not repeatable across concurrent writes:\n got %+v\nwant %+v",
			dataAnswer(after), dataAnswer(before))
	}
}

// TestTelemetryCountsSharedAddressSpaceOnce: the shards of a column live
// in one address space, and each of them reports that space's map_*
// instruments. The merged telemetry must carry them once — what any one
// shard reads — while the shards' own counters still add.
func TestTelemetryCountsSharedAddressSpaceOnce(t *testing.T) {
	cat := NewCatalog()
	defer func() {
		if err := cat.Close(); err != nil {
			t.Errorf("catalog close: %v", err)
		}
	}()
	tn, err := cat.Tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	col, err := tn.CreateColumn("a", eqPages, 4, RangeParts, asv.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Fill(asv.Sine(eqSeed, 0, eqDomain, 4)); err != nil {
		t.Fatal(err)
	}
	for _, q := range eqQueries() { // adaptive queries map views: mmap calls on every shard
		if _, err := col.QueryOpt(q.Lo, q.Hi); err != nil {
			t.Fatal(err)
		}
	}

	space := col.shards[0].Telemetry() // any one shard reads the whole space
	if space.Counters["map_mmap_calls"] == 0 {
		t.Fatal("setup: no mmap calls to count")
	}
	wantQueries := uint64(0)
	for _, sc := range col.shards {
		wantQueries += sc.Telemetry().Counters["engine_queries"]
	}
	column := col.Telemetry()
	if got := column.Counters["engine_queries"]; got != wantQueries || got == space.Counters["engine_queries"] {
		t.Errorf("column engine_queries = %d, want the shards' sum %d", got, wantQueries)
	}
	for name, want := range space.Counters {
		if !strings.HasPrefix(name, "map_") {
			continue
		}
		if got := column.Counters[name]; got != want {
			t.Errorf("4-shard column reports %s = %d, its address space %d", name, got, want)
		}
	}
	if got, want := column.Gauges["map_vma_count"], space.Gauges["map_vma_count"]; got != want {
		t.Errorf("4-shard column reports map_vma_count = %d, its address space %d", got, want)
	}
}
