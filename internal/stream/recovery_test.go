package stream

import (
	"errors"
	"fmt"
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
	if m.Records-m.Retried != 2 || !e.Reached(e.Mark()) {
		t.Errorf("records − retried = %d, want 2 (each input completed once); mark reached %v", m.Records-m.Retried, e.Reached(e.Mark()))
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
	if m.Records-m.Retried != 1 || !e.Reached(e.Mark()) {
		t.Errorf("records − retried = %d, want 1 (record retired when the hook gave up); mark reached %v", m.Records-m.Retried, e.Reached(e.Mark()))
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
	if m.Records-m.Retried != 1 || !e.Reached(e.Mark()) {
		t.Errorf("records − retried = %d, want 1 input record; mark reached %v", m.Records-m.Retried, e.Reached(e.Mark()))
	}
}

// TestOnBarrierReportsResolvedWatermark feeds SendBatch buffers that
// carry heartbeats mid-batch, at one partition and at four. At every
// OnBarrier call each partition's retired count is at least what it was
// at the previous call, and at the end it equals the engine's mark: each
// partition's records plus one copy of every heartbeat. Records counts
// each heartbeat once however many partitions ran a copy of it.
func TestOnBarrierReportsResolvedWatermark(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			var snaps [][]uint64
			var e *Engine
			e = New(Config{Partitions: parts, OnBarrier: func() {
				// Barriers are serialized, so snaps needs no lock.
				snap := make([]uint64, parts)
				for i, w := range e.workers {
					snap[i] = w.retired.Load()
				}
				snaps = append(snaps, snap)
			}}, func(ctx *Context, rec Record) []any { return []any{rec.Value} })
			var recs []Record
			var heartbeats uint64
			want := make(Mark, parts)
			for i := 0; i < 200; i++ {
				if i%7 == 3 {
					recs = append(recs, Record{Key: "hb", Heartbeat: true})
					heartbeats++
					continue
				}
				key := fmt.Sprintf("k%d", i%5)
				recs = append(recs, Record{Key: key, Value: i})
				want[partition(key, parts)]++
			}
			for p := range want {
				want[p] += heartbeats
			}
			runBatched(t, e, recs, 16) // every chunk holds two or three heartbeats
			if len(snaps) == 0 {
				t.Fatal("OnBarrier never fired")
			}
			for i := 1; i < len(snaps); i++ {
				for p := range snaps[i] {
					if snaps[i][p] < snaps[i-1][p] {
						t.Fatalf("partition %d retired count regressed: %v", p, snaps)
					}
				}
			}
			if got := e.Mark(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("mark = %v, want %v (records plus one copy of each heartbeat)", got, want)
			}
			if final := snaps[len(snaps)-1]; fmt.Sprint(final) != fmt.Sprint([]uint64(want)) {
				t.Fatalf("retired at the last barrier = %v, want %v", final, want)
			}
			if m := e.Metrics(); m.Records-m.Retried != uint64(len(recs)) {
				t.Errorf("records − retried = %d, want %d inputs, each heartbeat once", m.Records-m.Retried, len(recs))
			}
		})
	}
}
