package stream

import (
	"context"
	"fmt"
	"testing"

	"loglens/internal/clock"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// TestCancelDropAccounting: records accepted by Send but abandoned when Run
// is cancelled mid-batch must be counted dropped, so accepted == processed
// + dropped even at a hard shutdown. Before the fix the ctx-cancel path
// silently discarded both the half-collected batch and the input buffer.
func TestCancelDropAccounting(t *testing.T) {
	clk := clock.NewFake()
	e := New(Config{Partitions: 2, Clock: clk, Ops: &obs.Ops{Metrics: metrics.NewRegistry()}, Name: "main"},
		func(ctx *Context, rec Record) []any { return []any{rec.Value} })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx) }()

	const sent = 50
	for i := 0; i < sent; i++ {
		if err := e.Send(Record{Key: fmt.Sprintf("k%d", i), Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	// The fake clock never advances, so no batch interval elapses and
	// nothing is processed: every record is in the half-collected batch
	// or still in the input buffer when the cancel lands.
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}

	m := e.Metrics()
	if m.Records != 0 {
		t.Fatalf("records processed = %d, want 0", m.Records)
	}
	if m.RecordsDropped != sent {
		t.Fatalf("records dropped = %d, want %d", m.RecordsDropped, sent)
	}
	if m.Records+m.RecordsDropped != sent {
		t.Fatalf("conservation broken: processed %d + dropped %d != sent %d",
			m.Records, m.RecordsDropped, sent)
	}
	snap := e.cfg.Ops.Metrics.Snapshot()
	if got := snap.Counter("stream_records_dropped_total", "engine", "main", "reason", "abandoned"); got != sent {
		t.Fatalf("registry dropped counter = %d, want %d", got, sent)
	}
}

// TestRegistryMirrors: an instrumented engine must mirror its built-in
// counters into the shared registry with the engine label, including batch
// histograms, per-partition state gauges, and broadcast versions.
func TestRegistryMirrors(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Config{Partitions: 2, Ops: &obs.Ops{Metrics: reg}, Name: "parse"},
		func(ctx *Context, rec Record) []any {
			ctx.States().Put(rec.Key, rec.Value)
			return nil
		})
	e.Broadcast("model", "v1")
	e.Rebroadcast("model", "v2") // queued; Run applies it between batches

	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{Key: fmt.Sprintf("k%d", i), Value: i})
	}
	run(t, e, recs)

	snap := reg.Snapshot()
	if got := snap.Counter("stream_records_total", "engine", "parse"); got != 10 {
		t.Fatalf("stream_records_total = %d, want 10", got)
	}
	if got := snap.Counter("stream_batches_total", "engine", "parse"); got == 0 {
		t.Fatal("stream_batches_total = 0, want > 0")
	}
	if hv, ok := snap.Histogram("stream_batch_size", "engine", "parse"); !ok || hv.Count == 0 {
		t.Fatalf("stream_batch_size histogram missing or empty: %+v ok=%v", hv, ok)
	}
	if hv, ok := snap.Histogram("stream_batch_seconds", "engine", "parse"); !ok || hv.Count == 0 {
		t.Fatalf("stream_batch_seconds histogram missing or empty: %+v ok=%v", hv, ok)
	}
	var entries int64
	for p := 0; p < 2; p++ {
		entries += snap.Gauge("stream_state_entries", "engine", "parse", "partition", fmt.Sprint(p))
	}
	if entries != 10 {
		t.Fatalf("state entries across partitions = %d, want 10", entries)
	}
	if got := snap.Gauge("stream_broadcast_version", "engine", "parse", "id", "model"); got != 2 {
		t.Fatalf("stream_broadcast_version = %d, want 2", got)
	}
	if got := snap.Counter("stream_updates_applied_total", "engine", "parse"); got != 1 {
		t.Fatalf("stream_updates_applied_total = %d, want 1", got)
	}
}
