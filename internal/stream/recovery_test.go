package stream

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"loglens/internal/metrics"
	"loglens/internal/obs"
)

func TestSendAfterCloseCountsReasonLabel(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Config{Name: "main", Ops: &obs.Ops{Metrics: reg}}, func(ctx *Context, rec Record) []any { return nil })
	run(t, e, []Record{{Key: "a", Value: 1}})

	for i := 0; i < 3; i++ {
		if err := e.Send(Record{Key: "late"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("Send after Close = %v, want ErrClosed", err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("stream_records_dropped_total", "engine", "main", "reason", "send-after-close"); got != 3 {
		t.Errorf("send-after-close dropped = %d, want 3", got)
	}
	if got := snap.Counter("stream_records_dropped_total", "engine", "main", "reason", "abandoned"); got != 0 {
		t.Errorf("abandoned dropped = %d, want 0 (orderly close)", got)
	}
	// Rejected sends were never accepted, so the built-in conservation
	// count stays clean.
	if m := e.Metrics(); m.RecordsDropped != 0 {
		t.Errorf("Metrics.RecordsDropped = %d, want 0", m.RecordsDropped)
	}
}

func TestPanicHookRetriesUntilSuccess(t *testing.T) {
	var attempts atomic.Uint64
	e := New(Config{Partitions: 1}, func(ctx *Context, rec Record) []any {
		if rec.Key == "poison" && attempts.Add(1) < 3 {
			panic("boom")
		}
		return []any{rec.Value}
	})
	var strikes atomic.Uint64
	e.cfg.PanicHook = func(partition int, rec Record, v any) bool {
		return strikes.Add(1) < 5 // bounded retry budget
	}
	outs := run(t, e, []Record{
		{Key: "ok", Value: "a"},
		{Key: "poison", Value: "b"},
	})
	if len(outs) != 2 {
		t.Fatalf("outputs = %v, want both records to land after retries", outs)
	}
	m := e.Metrics()
	if m.OperatorPanics != 2 || m.Retried != 2 {
		t.Errorf("panics = %d retried = %d, want 2/2", m.OperatorPanics, m.Retried)
	}
	if m.Resolved != 2 {
		t.Errorf("Resolved = %d, want 2 (each input resolved once)", m.Resolved)
	}
	if m.RecordsDropped != 0 {
		t.Errorf("RecordsDropped = %d, want 0", m.RecordsDropped)
	}
}

func TestPanicHookGivesUpDropsRecord(t *testing.T) {
	e := New(Config{Partitions: 1}, func(ctx *Context, rec Record) []any {
		panic("always")
	})
	var strikes atomic.Uint64
	e.cfg.PanicHook = func(partition int, rec Record, v any) bool {
		return strikes.Add(1) < 3
	}
	outs := run(t, e, []Record{{Key: "poison", Value: 1}})
	if len(outs) != 0 {
		t.Fatalf("outputs = %v, want none", outs)
	}
	m := e.Metrics()
	if m.OperatorPanics != 3 {
		t.Errorf("OperatorPanics = %d, want 3 (K strikes)", m.OperatorPanics)
	}
	if m.Resolved != 1 {
		t.Errorf("Resolved = %d, want 1 (record resolved when the hook gave up)", m.Resolved)
	}
}

func TestHeartbeatsNeverRetried(t *testing.T) {
	e := New(Config{Partitions: 2}, func(ctx *Context, rec Record) []any {
		if rec.Heartbeat {
			panic("hb panic")
		}
		return nil
	})
	e.cfg.PanicHook = func(partition int, rec Record, v any) bool { return true }
	run(t, e, []Record{{Key: "hb", Heartbeat: true}})
	m := e.Metrics()
	if m.Retried != 0 {
		t.Errorf("Retried = %d, want 0 (heartbeats are never requeued)", m.Retried)
	}
	if m.OperatorPanics != 2 {
		t.Errorf("OperatorPanics = %d, want 2 (one per partition copy)", m.OperatorPanics)
	}
	if m.Resolved != 1 {
		t.Errorf("Resolved = %d, want 1 input record", m.Resolved)
	}
}

func TestBatchHookReportsResolvedWatermark(t *testing.T) {
	var mu sync.Mutex
	var marks []uint64
	e := New(Config{Partitions: 2, BatchHook: func(resolved uint64) {
		mu.Lock()
		marks = append(marks, resolved)
		mu.Unlock()
	}}, func(ctx *Context, rec Record) []any { return []any{rec.Value} })
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{Key: "k", Value: i})
	}
	run(t, e, recs)
	mu.Lock()
	defer mu.Unlock()
	if len(marks) == 0 {
		t.Fatal("BatchHook never fired")
	}
	for i := 1; i < len(marks); i++ {
		if marks[i] < marks[i-1] {
			t.Fatalf("watermark regressed: %v", marks)
		}
	}
	if final := marks[len(marks)-1]; final != 10 {
		t.Fatalf("final watermark = %d, want 10", final)
	}
}
