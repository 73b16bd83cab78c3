package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	s := NewSnapshot()
	s.SetGauge("g", 7)
	s.SetGauge("g", -3)
	if got := s.Gauges["g"]; got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	var h Histogram
	// 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4..7 → bucket 3.
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 6, 7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 || s.Sum != 28 {
		t.Fatalf("count/sum = %d/%d, want 8/28", s.Count, s.Sum)
	}
	want := []uint64{1, 1, 2, 4}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	for i, c := range want {
		if s.Buckets[i] != c {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], c, s.Buckets)
		}
	}
	// Nearest-rank over buckets: the median of 8 observations lands in
	// bucket 2 (upper bound 3); p99 lands in bucket 3 (upper bound 7).
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := s.Quantile(0.99); q != 7 {
		t.Fatalf("p99 = %d, want 7", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
	if m := s.Mean(); m != 3.5 {
		t.Fatalf("mean = %v, want 3.5", m)
	}
}

func TestHistogramObserveNoAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", n)
	}
}

func TestRegistryHandlesStoredOnce(t *testing.T) {
	r := NewRegistry()
	c1, c2 := r.Counter("x"), r.Counter("x")
	if c1 != c2 {
		t.Fatal("Counter(name) must return the same handle")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram(name) must return the same handle")
	}
	c1.Inc()
	c2.Inc()
	r.Histogram("h").Observe(9)
	s := r.Snapshot()
	if s.Counters["x"] != 2 || len(s.Gauges) != 0 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestSnapshotMergeAndStableJSON(t *testing.T) {
	a := NewSnapshot()
	a.AddCounter("c", 1)
	a.SetGauge("g", 10)
	a.SetHistogram("h", HistogramSnapshot{Count: 1, Sum: 2, Buckets: []uint64{0, 0, 1}})
	b := NewSnapshot()
	b.AddCounter("c", 2)
	b.AddCounter("d", 3)
	b.SetGauge("g", 20)
	b.SetHistogram("h", HistogramSnapshot{Count: 2, Sum: 8, Buckets: []uint64{0, 0, 1, 1}})
	m := a.Merge(b)
	if m.Counters["c"] != 3 || m.Counters["d"] != 3 {
		t.Fatalf("merged counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 20 {
		t.Fatalf("merged gauge = %d, want last-writer 20", m.Gauges["g"])
	}
	h := m.Histograms["h"]
	if h.Count != 3 || h.Sum != 10 || h.Buckets[2] != 2 || h.Buckets[3] != 1 {
		t.Fatalf("merged histogram = %+v", h)
	}

	j1, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON not stable:\n%s\n%s", j1, j2)
	}
	if !bytes.Contains(j1, []byte(`"counters"`)) {
		t.Fatalf("JSON missing counters block: %s", j1)
	}
}

func TestJournalRecordDrain(t *testing.T) {
	var now int64
	j := NewJournal(100, func() int64 { now++; return now })
	if j.Cap() != 128 {
		t.Fatalf("cap = %d, want rounded-up 128", j.Cap())
	}
	j.Record(EvEpochPublished, 1, 2, 3)
	j.Record(EvEpochRetired, 4, 5, 6)
	evs := j.Events()
	if len(evs) != 2 {
		t.Fatalf("drained %d events, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[0].Type != EvEpochPublished || evs[0].A != 1 || evs[0].Time != 1 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Seq != 2 || evs[1].Type != EvEpochRetired || evs[1].C != 6 {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	if got := j.next.Load(); got != 2 {
		t.Fatalf("recorded = %d, want 2", got)
	}
}

func TestJournalWrapKeepsNewest(t *testing.T) {
	j := NewJournal(64, func() int64 { return 0 })
	const total = 200
	for i := 0; i < total; i++ {
		j.Record(EvViewInserted, int64(i), 0, 0)
	}
	evs := j.Events()
	if len(evs) != 64 {
		t.Fatalf("drained %d, want ring cap 64", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(total - 64 + i + 1)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.A != int64(ev.Seq-1) {
			t.Fatalf("event %d payload %d does not match seq %d", i, ev.A, ev.Seq)
		}
	}
}

func TestJournalNilInert(t *testing.T) {
	var j *Journal
	j.Record(EvEpochPublished, 0, 0, 0)
	if j.Events() != nil || j.Cap() != 0 {
		t.Fatal("nil journal must be inert")
	}
	if NewJournal(0, nil) != nil {
		t.Fatal("size<=0 must return the nil journal")
	}
}

func TestJournalRecordNoAlloc(t *testing.T) {
	j := NewJournal(256, func() int64 { return 0 })
	if n := testing.AllocsPerRun(1000, func() { j.Record(EvViewInserted, 1, 2, 3) }); n != 0 {
		t.Fatalf("Record allocates %v per run, want 0", n)
	}
}

// TestJournalConcurrent hammers Record from many goroutines while a
// reader drains: drained sequence numbers must be unique and strictly
// increasing (monotone), and no drained event may mix payloads (payload
// word A always echoes seq-1 here, so a torn read is detectable).
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(512, func() int64 { return 0 })
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := j.Events()
			var prev uint64
			for _, ev := range evs {
				if ev.Seq <= prev {
					t.Errorf("non-monotone drain: %d after %d", ev.Seq, prev)
					return
				}
				prev = ev.Seq
				if ev.A != int64(ev.Seq-1) {
					t.Errorf("torn event: seq %d carries payload %d", ev.Seq, ev.A)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.recordEcho()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if got := j.next.Load(); got != writers*perWriter {
		t.Fatalf("recorded = %d, want %d", got, writers*perWriter)
	}
}

// recordEcho records an event whose payload word A echoes its own
// sequence number minus one, so readers can detect torn entries.
func (j *Journal) recordEcho() {
	seq := j.next.Add(1)
	j.store(seq, EvViewInserted, int64(seq-1), 0, 0)
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("query")
	pin := tr.Root.Child("pin")
	pin.SetAttr("epoch", 3)
	pin.Finish()
	scan := tr.Root.Child("scan")
	v := scan.Child("view")
	v.SetAttr("pages", 12)
	v.Finish()
	scan.ChildAt("stall", scan.Start, scan.Start+100)
	scan.Finish()
	tr.Finish()

	root := tr.Root
	if root.End == 0 || root.End < root.Start {
		t.Fatalf("root not finished: %+v", root)
	}
	if len(root.Children) != 2 || root.Children[0].Name != "pin" || root.Children[1].Name != "scan" {
		t.Fatalf("children = %+v", root.Children)
	}
	if got := root.Children[1].Children[1].Dur(); got != 100 {
		t.Fatalf("synthetic stall span duration = %v, want 100ns", got)
	}
	out := tr.String()
	for _, want := range []string{"query", "pin", "epoch=3", "view", "pages=12", "stall"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
	// Double-finish keeps the first end time.
	end := root.End
	root.Finish()
	if root.End != end {
		t.Fatal("second Finish must not move End")
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("child of nil span must be nil")
	}
	s.SetAttr("k", 1)
	s.Finish()
	if s.Dur() != 0 {
		t.Fatal("nil span duration must be 0")
	}
	if s.ChildAt("y", 0, 1) != nil {
		t.Fatal("ChildAt on nil span must be nil")
	}
	var tr *Trace
	tr.Finish()
	if tr.String() != "" {
		t.Fatal("nil trace must stringify empty")
	}
}

func TestSnapshotString(t *testing.T) {
	s := NewSnapshot()
	s.AddCounter("engine_queries", 10)
	s.SetGauge("tier_hot_frames", 4)
	s.SetHistogram("scan_ns_per_page", HistogramSnapshot{Count: 2, Sum: 6, Buckets: []uint64{0, 0, 2}})
	out := s.String()
	for _, want := range []string{"engine_queries", "10", "tier_hot_frames", "scan_ns_per_page", "count=2"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
}
