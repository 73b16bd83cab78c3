package asv

import (
	"testing"
	"time"
)

// TestAutopilotFacade drives the autopilot through the public surface:
// fire-and-forget updates, the Sync barrier, metrics and the flush-latency
// histogram.
func TestAutopilotFacade(t *testing.T) {
	const flushLatency = "autopilot_flush_latency_ns"
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	plain, err := db.CreateColumn("plain", 64, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.AutopilotMetrics(); ok {
		t.Fatal("plain column reports an autopilot")
	}
	if _, ok := plain.Telemetry().Histograms[flushLatency]; ok || plain.QueuedUpdates() != 0 {
		t.Fatal("plain column leaks autopilot state")
	}

	col, err := db.CreateColumn("auto", 64, WithAutopilot(DefaultConfig(), AutopilotConfig{
		CoalesceCount:    1 << 30,
		MaxFlushLatency:  time.Hour,
		MaintainInterval: -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := col.FillParallel(Sine(1, 0, 1_000_000, 8)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Column{plain, col} {
		if err := c.CreateViewOpt(0, 250_000, Pinned()); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Fill(Sine(1, 0, 1_000_000, 8)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		if err := col.Update(i*17, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := plain.Update(i*17, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := col.QueuedUpdates(); got != 100 {
		t.Fatalf("queued %d, want 100", got)
	}
	if err := col.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Sync(); err != nil {
		t.Fatal(err)
	}
	ra, err := col.QueryOpt(0, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.QueryOpt(0, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Count != rp.Count || ra.Sum != rp.Sum {
		t.Fatalf("autopilot answers (%d,%d) != plain (%d,%d)", ra.Count, ra.Sum, rp.Count, rp.Sum)
	}

	m, ok := col.AutopilotMetrics()
	if !ok || m.Enqueued != 100 || m.Applied != 100 || m.Flushes == 0 {
		t.Fatalf("metrics %+v ok=%v", m, ok)
	}
	lat := col.Telemetry().Histograms[flushLatency]
	if lat.Count == 0 {
		t.Fatal("no flush latency samples")
	}
	if p50, p99 := lat.Quantile(0.50), lat.Quantile(0.99); p50 == 0 || p99 < p50 {
		t.Fatalf("flush latency p50 %d ns, p99 %d ns", p50, p99)
	}
}
