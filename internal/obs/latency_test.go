package obs

import (
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/metrics"
)

func TestStageObserveAndQuantile(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := clock.NewFake()
	tr := NewLatency(reg, clk, 2, 0)

	for i := 0; i < 90; i++ {
		tr.Observe(StageParse, 3*time.Microsecond) // bucket (2.5e-6, 5e-6]
	}
	for i := 0; i < 10; i++ {
		tr.Observe(StageParse, 20*time.Millisecond) // (0.01, 0.025]
	}
	snap := reg.Snapshot()
	hv, ok := snap.Histogram("latency_stage_seconds", "stage", "parse")
	if !ok || hv.Count != 100 {
		t.Fatalf("parse histogram ok=%v count=%d", ok, hv.Count)
	}
	p50 := hv.Quantile(0.50)
	if p50 <= 0 || p50 > 0.000005 {
		t.Errorf("p50 = %v, want within first bucket (0, 5e-6]", p50)
	}
	p99 := hv.Quantile(0.99)
	if p99 <= 0.01 || p99 > 0.025 {
		t.Errorf("p99 = %v, want within (0.01, 0.025]", p99)
	}
	// Negative deltas clamp to zero rather than corrupting the sum.
	tr.Observe(StageDetect, -time.Second)
	hv, _ = snap2(reg, "detect")
	if hv.Count != 1 || hv.Sum != 0 {
		t.Errorf("negative delta: count=%d sum=%v, want 1/0", hv.Count, hv.Sum)
	}
}

func snap2(reg *metrics.Registry, stage string) (metrics.HistogramValue, bool) {
	return reg.Snapshot().Histogram("latency_stage_seconds", "stage", stage)
}

func TestSLOBreachCounting(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewLatency(reg, clock.NewFake(), 1, 50*time.Millisecond)
	tr.CheckSLO(49 * time.Millisecond)
	tr.CheckSLO(50 * time.Millisecond) // at threshold: not a breach
	tr.CheckSLO(51 * time.Millisecond)
	tr.CheckSLO(time.Second)
	if got := tr.Breaches(); got != 2 {
		t.Errorf("breaches = %d, want 2", got)
	}
	if got := reg.Snapshot().Counter("latency_slo_breach_total"); got != 2 {
		t.Errorf("latency_slo_breach_total = %d, want 2", got)
	}
	if tr.SLO() != 50*time.Millisecond {
		t.Errorf("SLO() = %v", tr.SLO())
	}

	// Zero threshold disables breach counting entirely.
	off := NewLatency(metrics.NewRegistry(), clock.NewFake(), 1, 0)
	off.CheckSLO(time.Hour)
	if off.Breaches() != 0 {
		t.Errorf("disabled SLO counted a breach")
	}
}

func TestWatermarksAndRefresh(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := clock.NewFake()
	t0 := clk.Now()
	tr := NewLatency(reg, clk, 2, 0)

	// No data: gauges report -1, table rows carry zero times.
	tr.Refresh()
	snap := reg.Snapshot()
	if got := snap.Gauge("freshness_proc_lag_ms", "partition", "0"); got != -1 {
		t.Errorf("empty partition lag = %d, want -1", got)
	}
	parts, tenants := tr.Watermarks()
	if len(parts) != 2 || len(tenants) != 0 {
		t.Fatalf("watermarks: %d parts %d tenants", len(parts), len(tenants))
	}
	if !parts[0].EventTime.IsZero() || parts[0].EventLagMs != -1 {
		t.Errorf("empty partition row = %+v", parts[0])
	}

	// Note watermarks on partition 0 and tenant alpha; partition 1 stays
	// empty.
	ev := t0.Add(10 * time.Millisecond)
	pr := t0.Add(30 * time.Millisecond)
	tr.Partition(0).Note(ev.UnixNano(), pr.UnixNano())
	tr.Tenant("alpha").Note(ev.UnixNano(), pr.UnixNano())

	// Watermarks only move forward: an older stamp must not regress them.
	tr.Partition(0).Note(t0.UnixNano(), t0.UnixNano())

	clk.Advance(100 * time.Millisecond) // now = t0+100ms
	tr.Refresh()
	snap = reg.Snapshot()
	if got := snap.Gauge("freshness_event_lag_ms", "partition", "0"); got != 90 {
		t.Errorf("event lag = %d, want 90", got)
	}
	if got := snap.Gauge("freshness_proc_lag_ms", "partition", "0"); got != 70 {
		t.Errorf("proc lag = %d, want 70", got)
	}
	if got := snap.Gauge("freshness_proc_lag_ms", "tenant", "alpha"); got != 70 {
		t.Errorf("tenant proc lag = %d, want 70", got)
	}
	if got := snap.Gauge("freshness_proc_lag_ms", "partition", "1"); got != -1 {
		t.Errorf("idle partition lag = %d, want -1", got)
	}

	parts, tenants = tr.Watermarks()
	if parts[0].ProcLagMs != 70 || !parts[0].ProcTime.Equal(pr) {
		t.Errorf("partition row = %+v", parts[0])
	}
	if len(tenants) != 1 || tenants[0].Tenant != "alpha" || tenants[0].EventLagMs != 90 {
		t.Errorf("tenant rows = %+v", tenants)
	}

	// Tenant resolves to the same cell on every call.
	if tr.Tenant("alpha") != tr.Tenant("alpha") {
		t.Errorf("Tenant not cached")
	}
}

func TestIngestWatermark(t *testing.T) {
	clk := clock.NewFake()
	t0 := clk.Now()
	tr := NewLatency(metrics.NewRegistry(), clk, 1, 0)
	if !tr.IngestWatermark().IsZero() {
		t.Errorf("fresh tracker has ingest watermark")
	}
	tr.NoteIngest(t0.Add(5 * time.Millisecond))
	tr.NoteIngest(t0) // older: must not regress
	if got := tr.IngestWatermark(); !got.Equal(t0.Add(5 * time.Millisecond)) {
		t.Errorf("ingest watermark = %v", got)
	}
}

// TestLatencyAllocBudgets extends the PR 5 AllocsPerRun budgets to the
// latency plane: stage observation, SLO check, watermark notes, and the
// barrier refresh must all be allocation-free once tenants are
// resolved.
func TestLatencyAllocBudgets(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := clock.NewFake()
	tr := NewLatency(reg, clk, 4, 100*time.Millisecond)
	cell := tr.Tenant("alpha")
	now := clk.Now().UnixNano()

	budgets := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Observe", 0, func() { tr.Observe(StageDeliver, 42*time.Microsecond) }},
		{"CheckSLO", 0, func() { tr.CheckSLO(time.Second) }},
		{"PartitionNote", 0, func() { tr.Partition(2).Note(now, now) }},
		{"TenantNote", 0, func() { cell.Note(now, now) }},
		{"NoteIngest", 0, func() { tr.NoteIngest(clk.Now()) }},
		{"Refresh", 0, tr.Refresh},
	}
	for _, b := range budgets {
		if got := testing.AllocsPerRun(200, b.fn); got > b.max {
			t.Errorf("%s allocates %.1f/op, budget %.0f", b.name, got, b.max)
		}
	}
}
