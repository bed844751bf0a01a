package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/experiments"
	"loglens/internal/latency"
	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/stream"
	"loglens/internal/testutil"
)

// latencyTrainingLines builds a timestamp-less training corpus so the
// mined patterns carry no DateTime token: detection lines fabricated by
// the test (also timestamp-less) then parse cleanly and their EventTime
// falls back to Arrival, which the test controls exactly.
func latencyTrainingLines() []string {
	var lines []string
	for i := 0; i < 150; i++ {
		id := fmt.Sprintf("tr-%04d", i)
		lines = append(lines,
			fmt.Sprintf("task %s start prio %d", id, i%5),
			fmt.Sprintf("task %s done code %d", id, i%3),
		)
	}
	return lines
}

// quantileWithin asserts an exact interpolated quantile to within float
// round-off.
func quantileWithin(t *testing.T, what string, hv metrics.HistogramValue, q, want float64) {
	t.Helper()
	got := hv.Quantile(q)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s p%g = %v, want %v", what, q*100, got, want)
	}
}

// sendDirect hands one line straight to the engine, bypassing the log
// manager and its admission watermark.
func sendDirect(p *Pipeline, l logtypes.Log) {
	p.engine.Send(stream.Record{Key: l.Source, Value: l, Time: l.Arrival})
}

// TestPipelineLatencyExact scripts the whole latency plane on a fake
// clock and asserts the resulting percentiles, SLO burn, and watermarks
// EXACTLY. Two waves of lines with fabricated Arrival stamps flow
// through the started engine while the clock is parked, so every stage
// delta is a known constant:
//
//   - wave 1: 90 "alpha" lines, Arrival=T0, processed with the clock at
//     T0+100ms → deliver=e2e=100ms, every line breaching the 50ms SLO;
//   - wave 2: 10 "beta" lines, Arrival=T0+100ms, processed at T0+125ms
//     → deliver=e2e=25ms, inside the SLO.
//
// E2e, SLO burn, and watermarks are per-line; the stage histograms
// observe on the deterministic 1-in-16 per-source sample.
//
// Parse and detect run with the clock parked, so their deltas are an
// exact 0s. MaxBatch=10 with an hour-long batch window makes every full
// batch dispatch immediately and keeps any empty barrier from firing in
// between, so the barrier-cadence freshness gauges hold the values
// computed at the wave-2 barrier.
func TestPipelineLatencyExact(t *testing.T) {
	fc := clock.NewFake()
	t0 := fc.Now()
	p, err := New(Config{
		Clock:            fc,
		DisableHeartbeat: true,
		Partitions:       1,
		MaxBatch:         10,
		BatchInterval:    time.Hour,
		SLOE2E:           50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Train("latency", experiments.ToLogs("alpha", latencyTrainingLines())); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	parsed := func() uint64 { return p.Metrics().Snapshot().Counter("core_parsed_total") }

	// Wave 1: 90 alpha lines that aged 100ms between arrival and pickup.
	fc.Advance(100 * time.Millisecond)
	for i := 0; i < 90; i++ {
		sendDirect(p, logtypes.Log{
			Source:  "alpha",
			Seq:     uint64(i + 1),
			Arrival: t0,
			Raw:     fmt.Sprintf("task a%04d start prio %d", i, i%5),
		})
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool { return parsed() == 90 },
		"wave 1 not fully parsed")

	// Wave 2: 10 beta lines, 25ms old at pickup.
	fc.SetTime(t0.Add(125 * time.Millisecond))
	for i := 0; i < 10; i++ {
		sendDirect(p, logtypes.Log{
			Source:  "beta",
			Seq:     uint64(i + 1),
			Arrival: t0.Add(100 * time.Millisecond),
			Raw:     fmt.Sprintf("task b%04d start prio %d", i, i%5),
		})
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool { return parsed() == 100 },
		"wave 2 not fully parsed")
	// The freshness gauges republish at the micro-batch barrier, which
	// completes after the last parse increments the counter above: sync
	// on beta's gauge reaching its exact barrier value before snapshotting.
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.Metrics().Snapshot().Gauge("freshness_proc_lag_ms", "tenant", "beta") == 25
	}, "wave 2 barrier never refreshed the freshness gauges")

	snap := p.Metrics().Snapshot()
	if got := snap.Counter("core_unparsed_total"); got != 0 {
		t.Fatalf("unparsed = %d, want 0 (histogram expectations assume clean parses)", got)
	}

	// The stage histograms observe on the deterministic 1-in-16
	// per-source sample: alpha's 90 lines sample ticks 0,16,32,48,64,80
	// (6 observations) and beta's 10 lines sample tick 0 (1). Deliver
	// closes at the engine's batch pickup stamp, so the 6 alpha samples
	// are an exact 100ms — bucket (0.05,0.1] — and beta's one sample an
	// exact 25ms, which Observe places in (0.01,0.025] (values on a
	// bound land in that bound's bucket). Interpolating inside
	// (0.05,0.1] with rank 7q: p50 → 0.05 + 0.05·(3.5-1)/6, p95 →
	// +0.05·(6.65-1)/6, p99 → +0.05·(6.93-1)/6.
	deliver, ok := snap.Histogram("latency_stage_seconds", "stage", "deliver")
	if !ok || deliver.Count != 7 {
		t.Fatalf("deliver histogram = %+v, ok=%v (want 7 sampled stamps)", deliver, ok)
	}
	quantileWithin(t, "deliver", deliver, 0.50, 0.05+(0.1-0.05)*(0.50*7-1)/6)
	quantileWithin(t, "deliver", deliver, 0.95, 0.05+(0.1-0.05)*(0.95*7-1)/6)
	quantileWithin(t, "deliver", deliver, 0.99, 0.05+(0.1-0.05)*(0.99*7-1)/6)

	// Parse and detect stamps ride the deterministic 1-in-16 per-source
	// sample: alpha's 90 lines stamp ticks 0,16,32,48,64,80 (6 samples)
	// and beta's 10 lines stamp tick 0 (1 sample). The clock was parked
	// during every stamp, so all 7 samples are an exact 0, landing in
	// the first bucket [0, 5µs); with every sample in one bucket the
	// interpolated quantile is bound·q regardless of count.
	for _, stage := range []string{"parse", "detect"} {
		hv, ok := snap.Histogram("latency_stage_seconds", "stage", stage)
		if !ok || hv.Count != 7 {
			t.Fatalf("%s histogram = %+v, ok=%v (want 7 sampled stamps)", stage, hv, ok)
		}
		if hv.Buckets[0] != 7 {
			t.Errorf("%s first bucket = %d, want all 7 samples", stage, hv.Buckets[0])
		}
		quantileWithin(t, stage, hv, 0.50, latency.StageBuckets[0]*50/100)
		quantileWithin(t, stage, hv, 0.99, latency.StageBuckets[0]*99/100)
	}

	// No network intake ran and no anomaly fired, so those stages are
	// empty.
	for _, stage := range []string{"intake", "sink"} {
		if hv, _ := snap.Histogram("latency_stage_seconds", "stage", stage); hv.Count != 0 {
			t.Errorf("%s histogram count = %d, want 0", stage, hv.Count)
		}
	}

	// End-to-end equals deliver here (parse and detect cost 0 fake
	// time); over metrics.DefBuckets the 100ms wave lands in (0.05,0.1]
	// and the 25ms wave in (0.025,0.05]... the 25ms samples sit exactly
	// on the 0.025 bound, which Observe places in (0.01,0.025]. The
	// interpolation is therefore identical to deliver's.
	e2e, ok := snap.Histogram("core_line_seconds")
	if !ok || e2e.Count != 100 {
		t.Fatalf("core_line_seconds = %+v, ok=%v", e2e, ok)
	}
	quantileWithin(t, "e2e", e2e, 0.50, 0.05+(0.1-0.05)*(50-10)/90)
	quantileWithin(t, "e2e", e2e, 0.99, 0.05+(0.1-0.05)*(99-10)/90)

	// Exactly the 90 wave-1 lines breached the 50ms SLO.
	if got := snap.Counter("latency_slo_breach_total"); got != 90 {
		t.Errorf("latency_slo_breach_total = %d, want 90", got)
	}

	// Freshness gauges hold the wave-2 barrier's computation (clock at
	// T0+125ms): the partition and beta watermarks are wave 2's arrival
	// (T0+100ms, 25ms old), alpha's is wave 1's (T0, 125ms old).
	if got := snap.Gauge("freshness_event_lag_ms", "partition", "0"); got != 25 {
		t.Errorf("partition event lag = %d, want 25", got)
	}
	if got := snap.Gauge("freshness_proc_lag_ms", "partition", "0"); got != 25 {
		t.Errorf("partition proc lag = %d, want 25", got)
	}
	if got := snap.Gauge("freshness_proc_lag_ms", "tenant", "alpha"); got != 125 {
		t.Errorf("alpha proc lag = %d, want 125", got)
	}
	if got := snap.Gauge("freshness_proc_lag_ms", "tenant", "beta"); got != 25 {
		t.Errorf("beta proc lag = %d, want 25", got)
	}

	// The live watermark table recomputes lag against the current clock:
	// advance 100ms with no traffic and every lag ages by exactly 100ms.
	fc.SetTime(t0.Add(225 * time.Millisecond))
	parts, tenants := p.Latency().Watermarks()
	if len(parts) != 1 || parts[0].EventLagMs != 125 || parts[0].ProcLagMs != 125 {
		t.Errorf("partition watermarks = %+v, want 125ms lags", parts)
	}
	if !parts[0].ProcTime.Equal(t0.Add(100 * time.Millisecond)) {
		t.Errorf("partition proc watermark = %v", parts[0].ProcTime)
	}
	if len(tenants) != 2 || tenants[0].Tenant != "alpha" || tenants[1].Tenant != "beta" {
		t.Fatalf("tenant watermarks = %+v", tenants)
	}
	if tenants[0].ProcLagMs != 225 || tenants[1].ProcLagMs != 125 {
		t.Errorf("tenant lags = %d/%d, want 225/125", tenants[0].ProcLagMs, tenants[1].ProcLagMs)
	}

	// The ingest watermark is fed by the log-manager admission path, not
	// by direct engine sends: it is still empty, and flips to the bus
	// publish stamp once a line travels the agent → bus → log manager
	// route with the clock parked at a known instant.
	if wm := p.Latency().IngestWatermark(); !wm.IsZero() {
		t.Fatalf("ingest watermark = %v before any admitted line", wm)
	}
	ag, err := p.Agent("alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.Send("task a9999 start prio 1"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.Latency().IngestWatermark().Equal(t0.Add(225 * time.Millisecond))
	}, "ingest watermark never advanced to the admitted line's publish stamp")
}
