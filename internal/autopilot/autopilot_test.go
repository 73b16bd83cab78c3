package autopilot

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeTarget records every Target call; all methods are safe for
// concurrent use and signal appliedCh/alignedCh so tests wait on events
// instead of sleeping.
type fakeTarget struct {
	mu       sync.Mutex
	applied  [][]Write
	aligns   int
	applyErr error
	clock    uint64
	temps    []ViewTemp
	evicted  [][]any
	rebuilt  []any

	appliedCh chan []Write
	alignedCh chan struct{}
	maintCh   chan struct{}
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{
		appliedCh: make(chan []Write, 64),
		alignedCh: make(chan struct{}, 64),
		maintCh:   make(chan struct{}, 64),
	}
}

func (f *fakeTarget) ApplyWrites(ws []Write) error {
	f.mu.Lock()
	cp := append([]Write(nil), ws...)
	f.applied = append(f.applied, cp)
	err := f.applyErr
	f.mu.Unlock()
	f.appliedCh <- cp
	return err
}

func (f *fakeTarget) AlignPending() error {
	f.mu.Lock()
	f.aligns++
	f.mu.Unlock()
	f.alignedCh <- struct{}{}
	return nil
}

func (f *fakeTarget) ViewTemperatures() (uint64, []ViewTemp) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clock, append([]ViewTemp(nil), f.temps...)
}

func (f *fakeTarget) EvictViews(hs []any) (int, error) {
	f.mu.Lock()
	f.evicted = append(f.evicted, hs)
	f.mu.Unlock()
	return len(hs), nil
}

func (f *fakeTarget) RebuildView(h any) (bool, error) {
	f.mu.Lock()
	f.rebuilt = append(f.rebuilt, h)
	f.mu.Unlock()
	return true, nil
}

func (f *fakeTarget) totalApplied() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, b := range f.applied {
		n += len(b)
	}
	return n
}

const testRows = 1 << 20

// startPilot builds a pilot over a fake target and a manual clock, with
// maintenance disabled unless the config enables it.
func startPilot(t *testing.T, tgt Target, cfg Config) (*Pilot, *ManualClock) {
	t.Helper()
	clock := NewManualClock(time.Unix(1000, 0))
	cfg.Clock = clock
	if cfg.MaintainInterval == 0 {
		cfg.MaintainInterval = -1
	}
	p, err := Start(tgt, cfg, testRows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p, clock
}

func TestCountThresholdFlush(t *testing.T) {
	tgt := newFakeTarget()
	p, _ := startPilot(t, tgt, Config{CoalesceCount: 4, MaxFlushLatency: time.Hour})
	for i := 0; i < 4; i++ {
		if err := p.Enqueue(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	batch := <-tgt.appliedCh
	<-tgt.alignedCh
	if len(batch) != 4 {
		t.Fatalf("coalesced %d writes, want 4", len(batch))
	}
	m := p.Metrics()
	if m.CountFlushes != 1 || m.Flushes != 1 || m.Applied != 4 || m.Enqueued != 4 {
		t.Fatalf("metrics %+v", m)
	}
	if p.Queued() != 0 {
		t.Fatalf("queued %d after flush", p.Queued())
	}
	if got := m.AvgCoalesce(); got != 4 {
		t.Fatalf("AvgCoalesce %g, want 4", got)
	}
}

func TestBytesThresholdFlush(t *testing.T) {
	tgt := newFakeTarget()
	// 3 writes × 16 bytes = 48 ≥ 40: the bytes knob trips before count.
	p, _ := startPilot(t, tgt, Config{CoalesceCount: 100, CoalesceBytes: 40, MaxFlushLatency: time.Hour})
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	batch := <-tgt.appliedCh
	<-tgt.alignedCh
	if len(batch) != 3 {
		t.Fatalf("coalesced %d writes, want 3", len(batch))
	}
	if m := p.Metrics(); m.ByteFlushes != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestDeadlineFlush(t *testing.T) {
	tgt := newFakeTarget()
	p, clock := startPilot(t, tgt, Config{CoalesceCount: 100, MaxFlushLatency: 5 * time.Millisecond})
	if err := p.Enqueue(7, 42); err != nil {
		t.Fatal(err)
	}
	// Wait (blocking, not sleeping) until the pilot armed the deadline,
	// then advance past it.
	clock.BlockUntilTimers(1)
	clock.Advance(5 * time.Millisecond)
	batch := <-tgt.appliedCh
	<-tgt.alignedCh
	if len(batch) != 1 || batch[0] != (Write{Row: 7, Value: 42}) {
		t.Fatalf("batch %v", batch)
	}
	m := p.Metrics()
	if m.DeadlineFlushes != 1 {
		t.Fatalf("metrics %+v", m)
	}
	h := p.LatencyHistogram()
	if h.Count != 1 {
		t.Fatalf("latency histogram count %d, want 1", h.Count)
	}
	// The log₂ latency histogram reads the 5ms flush back as its bucket's
	// upper bound (< 8.4ms).
	if p50 := time.Duration(h.Quantile(0.5)); p50 < 5*time.Millisecond || p50 >= 16*time.Millisecond {
		t.Fatalf("p50 latency %v, want [5ms, 16ms)", p50)
	}
}

func TestBackpressureDrainsCooperatively(t *testing.T) {
	tgt := newFakeTarget()
	p, _ := startPilot(t, tgt, Config{CoalesceCount: 1 << 20, CoalesceBytes: 1 << 30,
		MaxFlushLatency: time.Hour, MaxQueued: 8})
	for i := 0; i < 8; i++ {
		if err := p.Enqueue(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	// The 8th enqueue hit MaxQueued and drained on the caller's
	// goroutine, so by the time it returned the writes are applied.
	if got := tgt.totalApplied(); got != 8 {
		t.Fatalf("applied %d writes, want 8", got)
	}
	if m := p.Metrics(); m.BackpressureFlushes != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestSyncDrainsBelowThreshold(t *testing.T) {
	tgt := newFakeTarget()
	p, _ := startPilot(t, tgt, Config{CoalesceCount: 100, MaxFlushLatency: time.Hour})
	for i := 0; i < 3; i++ {
		if err := p.Enqueue(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := tgt.totalApplied(); got != 3 {
		t.Fatalf("applied %d, want 3", got)
	}
	tgt.mu.Lock()
	aligns := tgt.aligns
	tgt.mu.Unlock()
	if aligns != 1 {
		t.Fatalf("aligns %d, want 1", aligns)
	}
	// Empty sync is a no-op flush-wise.
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.Flushes != 1 || m.SyncFlushes != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestApplyQueuedSkipsAlignment(t *testing.T) {
	tgt := newFakeTarget()
	p, _ := startPilot(t, tgt, Config{CoalesceCount: 100, MaxFlushLatency: time.Hour})
	if err := p.Enqueue(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.ApplyQueued(); err != nil {
		t.Fatal(err)
	}
	tgt.mu.Lock()
	defer tgt.mu.Unlock()
	if len(tgt.applied) != 1 || tgt.aligns != 0 {
		t.Fatalf("applied %d batches, %d aligns; want 1, 0", len(tgt.applied), tgt.aligns)
	}
}

func TestStopDrainsRemaining(t *testing.T) {
	tgt := newFakeTarget()
	p, _ := startPilot(t, tgt, Config{CoalesceCount: 100, MaxFlushLatency: time.Hour})
	for i := 0; i < 5; i++ {
		if err := p.Enqueue(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop()
	if got := tgt.totalApplied(); got != 5 {
		t.Fatalf("stop applied %d writes, want 5", got)
	}
	if err := p.Enqueue(1, 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("enqueue after stop: %v", err)
	}
	p.Stop() // idempotent
}

func TestEnqueueValidatesRow(t *testing.T) {
	tgt := newFakeTarget()
	p, _ := startPilot(t, tgt, Config{})
	if err := p.Enqueue(-1, 0); err == nil {
		t.Fatal("negative row accepted")
	}
	if err := p.Enqueue(testRows, 0); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

func TestFlushErrorSurfacesAtSync(t *testing.T) {
	tgt := newFakeTarget()
	boom := errors.New("apply failed")
	tgt.mu.Lock()
	tgt.applyErr = boom
	tgt.mu.Unlock()
	p, _ := startPilot(t, tgt, Config{CoalesceCount: 2, MaxFlushLatency: time.Hour})
	if err := p.Enqueue(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(1, 1); err != nil {
		t.Fatal(err)
	}
	<-tgt.appliedCh
	if err := p.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync error = %v, want the async flush failure", err)
	}
	if err := p.Sync(); err != nil {
		t.Fatalf("error not consumed: %v", err)
	}
}

// maintCfg enables only the lifecycle ticker, with deterministic knobs.
func maintCfg(reports chan MaintainReport) Config {
	return Config{
		CoalesceCount:    1 << 20,
		MaxFlushLatency:  time.Hour,
		MaintainInterval: 100 * time.Millisecond,
		ColdTicks:        10,
		RebuildFrag:      0.5,
		MinRebuildPages:  4,
		OnMaintain:       func(r MaintainReport) { reports <- r },
	}
}

func TestMaintainEvictsCold(t *testing.T) {
	tgt := newFakeTarget()
	tgt.clock = 100
	tgt.temps = []ViewTemp{
		{Handle: "cold", LastUsed: 5, Uses: 1, Pages: 10},
		{Handle: "warm", LastUsed: 95, Uses: 50, Pages: 10},
	}
	reports := make(chan MaintainReport, 8)
	p, clock := startPilot(t, tgt, maintCfg(reports))
	_ = p
	clock.Advance(100 * time.Millisecond)
	rep := <-reports
	if rep.Views != 2 || rep.Evicted != 1 {
		t.Fatalf("report %+v", rep)
	}
	tgt.mu.Lock()
	defer tgt.mu.Unlock()
	if len(tgt.evicted) != 1 || len(tgt.evicted[0]) != 1 || tgt.evicted[0][0] != "cold" {
		t.Fatalf("evicted %v", tgt.evicted)
	}
	// The warm view is unfragmented: kept, never rebuilt.
	if len(tgt.rebuilt) != 0 {
		t.Fatalf("rebuilt %v", tgt.rebuilt)
	}
}

func TestMaintainRebuildsFragmented(t *testing.T) {
	tgt := newFakeTarget()
	tgt.clock = 20
	tgt.temps = []ViewTemp{
		{Handle: "frag", LastUsed: 19, Uses: 3, Pages: 8, Frag: 0.9},
		{Handle: "small-frag", LastUsed: 19, Uses: 3, Pages: 2, Frag: 0.9}, // under MinRebuildPages
		{Handle: "ordered", LastUsed: 19, Uses: 3, Pages: 8, Frag: 0.1},
	}
	reports := make(chan MaintainReport, 8)
	_, clock := startPilot(t, tgt, maintCfg(reports))
	clock.Advance(100 * time.Millisecond)
	rep := <-reports
	if rep.Rebuilt != 1 {
		t.Fatalf("report %+v", rep)
	}
	tgt.mu.Lock()
	defer tgt.mu.Unlock()
	if len(tgt.rebuilt) != 1 || tgt.rebuilt[0] != "frag" {
		t.Fatalf("rebuilt %v", tgt.rebuilt)
	}
}

func TestMaintainGracePeriod(t *testing.T) {
	// Until the LRU clock passes ColdTicks, nothing is cold — fresh
	// engines must not shed their first views.
	tgt := newFakeTarget()
	tgt.clock = 8 // below ColdTicks=10
	tgt.temps = []ViewTemp{{Handle: "young", LastUsed: 0, Uses: 0, Pages: 10}}
	reports := make(chan MaintainReport, 8)
	_, clock := startPilot(t, tgt, maintCfg(reports))
	clock.Advance(100 * time.Millisecond)
	rep := <-reports
	if rep.Evicted != 0 {
		t.Fatalf("evicted during grace period: %+v", rep)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{CoalesceCount: -1},
		{CoalesceBytes: -1},
		{MaxFlushLatency: -time.Second},
		{MaxQueued: -2},
		{RebuildFrag: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Start(newFakeTarget(), cfg, testRows); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestCostModelScanSlowdown pins the signal the tier feedback reads: the
// slowdown is 1 before any sample and while scans run at the best cost
// seen, and rises above 1 once scans get slower than that floor.
func TestCostModelScanSlowdown(t *testing.T) {
	m := new(CostModel)
	if got := m.ScanSlowdown(); got != 1 {
		t.Fatalf("cold model: slowdown %g, want 1", got)
	}
	// ~1µs/page, steady: the smoothed cost sits at its own floor.
	for i := 0; i < 10; i++ {
		m.ObserveScan(4096, 4096*time.Microsecond)
	}
	if pp := m.ScanNsPerPage(); pp < 900 || pp > 1100 {
		t.Fatalf("scanNsPerPage %g, want ~1000", pp)
	}
	if got := m.ScanSlowdown(); got != 1 {
		t.Fatalf("at the floor: slowdown %g, want 1", got)
	}
	// Scans now take twice as long: the slowdown climbs toward 2.
	for i := 0; i < 10; i++ {
		m.ObserveScan(4096, 8192*time.Microsecond)
	}
	if got := m.ScanSlowdown(); got <= 1 || got > 2 {
		t.Fatalf("after slower scans: slowdown %g, want in (1, 2]", got)
	}
	// Degenerate samples are ignored.
	before := m.ScanNsPerPage()
	m.ObserveScan(0, time.Millisecond)
	m.ObserveScan(4096, 0)
	if got := m.ScanNsPerPage(); got != before {
		t.Fatalf("degenerate samples moved the model: %g -> %g", before, got)
	}
}

func TestManualClockTicker(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	tk := c.NewTicker(10 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("ticker fired before advance")
	default:
	}
	c.Advance(25 * time.Millisecond) // two periods → one coalesced tick
	<-tk.C()
	select {
	case <-tk.C():
		t.Fatal("ticker over-delivered")
	default:
	}
	tk.Stop()
	c.Advance(time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
}
