package stream

import (
	"fmt"
	"sync"
	"testing"
)

// runBatched mirrors run but feeds records through SendBatch in chunks,
// using pooled RecordBuffer slices like a batching producer would.
func runBatched(t *testing.T, e *Engine, recs []Record, chunk int) []any {
	t.Helper()
	var mu sync.Mutex
	var outs []any
	e.SetSink(func(o any) {
		mu.Lock()
		outs = append(outs, o)
		mu.Unlock()
	})
	done := make(chan error, 1)
	go func() { done <- e.Run(t.Context()) }()
	for len(recs) > 0 {
		n := chunk
		if n > len(recs) {
			n = len(recs)
		}
		buf := e.RecordBuffer()
		buf = append(buf, recs[:n]...)
		if err := e.SendBatch(buf); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
	e.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestSendBatchDelivers: batched hand-offs process every record exactly
// once and count them in the engine metrics, same as per-record Send.
func TestSendBatchDelivers(t *testing.T) {
	e := New(Config{Partitions: 3}, func(ctx *Context, rec Record) []any {
		return []any{rec.Value}
	})
	var recs []Record
	for i := 0; i < 200; i++ {
		recs = append(recs, Record{Key: fmt.Sprintf("k%d", i%7), Value: i})
	}
	outs := runBatched(t, e, recs, 32)
	if len(outs) != 200 {
		t.Fatalf("outputs = %d, want 200", len(outs))
	}
	m := e.Metrics()
	if m.Records-m.Retried != 200 || !e.Reached(e.Mark()) {
		t.Errorf("metrics = %+v, mark %v reached %v", m, e.Mark(), e.Reached(e.Mark()))
	}
}

// TestSendBatchKeyOrder: per-key ordering survives batched hand-offs —
// chunks land in send order and partitions process serially.
func TestSendBatchKeyOrder(t *testing.T) {
	var mu sync.Mutex
	perKey := map[string][]int{}
	e := New(Config{Partitions: 4}, func(ctx *Context, rec Record) []any {
		mu.Lock()
		perKey[rec.Key] = append(perKey[rec.Key], rec.Value.(int))
		mu.Unlock()
		return nil
	})
	var recs []Record
	for i := 0; i < 60; i++ {
		for k := 0; k < 4; k++ {
			recs = append(recs, Record{Key: fmt.Sprintf("k%d", k), Value: i})
		}
	}
	runBatched(t, e, recs, 17) // chunk size coprime to the key cycle
	for k, vals := range perKey {
		if len(vals) != 60 {
			t.Fatalf("key %s saw %d records", k, len(vals))
		}
		for i, v := range vals {
			if v != i {
				t.Fatalf("key %s order violated at %d: %d", k, i, v)
			}
		}
	}
}

// TestSendBatchAfterClose: a batch rejected after Close reports ErrClosed
// and counts every record under the send-after-close reason.
func TestSendBatchAfterClose(t *testing.T) {
	e := New(Config{Partitions: 1}, func(ctx *Context, rec Record) []any { return nil })
	e.Close()
	buf := e.RecordBuffer()
	buf = append(buf, Record{Key: "a"}, Record{Key: "b"})
	if err := e.SendBatch(buf); err != ErrClosed {
		t.Fatalf("SendBatch after Close = %v, want ErrClosed", err)
	}
}

// TestRecordBufferRecycles: buffers absorbed by the engine return to the
// pool zeroed, so a producer cycling RecordBuffer does not leak payloads
// through pooled arrays.
func TestRecordBufferRecycles(t *testing.T) {
	e := New(Config{Partitions: 1}, func(ctx *Context, rec Record) []any { return nil })
	buf := e.RecordBuffer()
	buf = append(buf, Record{Key: "x", Value: "payload"})
	e.putRecordBuffer(buf)
	got := e.RecordBuffer()
	if len(got) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(got))
	}
	full := got[:cap(got)]
	for i := range full {
		if full[i] != (Record{}) {
			t.Fatalf("recycled buffer retains record at %d: %+v", i, full[i])
		}
	}
}

// TestRecycledBuffersHoldNoPayload: batches of shrinking and growing
// length cycle through the same pooled arrays — passed straight through
// to one partition, and split across three — and every buffer the pool
// hands out afterwards holds no record payload anywhere in [0:cap):
// each recycle clears the used prefix, and the rest of a pooled buffer
// is already zero.
func TestRecycledBuffersHoldNoPayload(t *testing.T) {
	for _, parts := range []int{1, 3} {
		e := New(Config{Partitions: parts}, func(*Context, Record) []any { return nil })
		done := make(chan error, 1)
		go func() { done <- e.Run(t.Context()) }()
		for _, n := range []int{300, 16, 1, 1024, 40, 2, 700} {
			buf := e.RecordBuffer()
			for i := 0; i < n; i++ {
				buf = append(buf, Record{Key: fmt.Sprintf("k%d", i%5), Value: "payload"})
			}
			if err := e.SendBatch(buf); err != nil {
				t.Fatal(err)
			}
		}
		e.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			buf := e.RecordBuffer() // kept out of the pool: each Get draws another
			full := buf[:cap(buf)]
			for i := range full {
				if full[i] != (Record{}) {
					t.Fatalf("partitions=%d: pooled buffer %d (cap %d) holds a record at %d: %+v", parts, k, cap(buf), i, full[i])
				}
			}
		}
	}
}

// TestSendAfterSendBatchOrdered: a record sent with Send immediately
// after a SendBatch from the same goroutine is processed after the
// batch's records — the ordering the log manager relies on when a
// heartbeat follows a flushed batch of logs. Regression test for the
// separate-batch-channel design, where a heartbeat could overtake logs.
func TestSendAfterSendBatchOrdered(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	e := New(Config{Partitions: 2}, func(ctx *Context, rec Record) []any {
		mu.Lock()
		seen = append(seen, rec.Value.(int))
		mu.Unlock()
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- e.Run(t.Context()) }()
	next := 0
	for round := 0; round < 50; round++ {
		buf := e.RecordBuffer()
		for i := 0; i < 9; i++ {
			buf = append(buf, Record{Key: "src", Value: next})
			next++
		}
		if err := e.SendBatch(buf); err != nil {
			t.Fatal(err)
		}
		// The follower record (a heartbeat in the log-manager analogy)
		// must land after the batch it chases.
		if err := e.Send(Record{Key: "src", Value: next}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	e.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(seen) != next {
		t.Fatalf("processed %d records, want %d", len(seen), next)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}
