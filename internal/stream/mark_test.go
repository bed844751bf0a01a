package stream

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loglens/internal/testutil"
)

// keysByPartition returns one key the engine routes to each of parts
// partitions.
func keysByPartition(parts int) []string {
	keys := make([]string, parts)
	for i, found := 0, 0; found < parts; i++ {
		k := strconv.Itoa(i)
		if p := partition(k, parts); keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	return keys
}

// TestMarkHeldByGatedPartition: a mark is reached only when every
// partition has retired its share. While partition 0's operator sits on
// a gate, partitions 1–3 sink everything they were sent and their share
// of the mark is reached, but the mark is not; opening the gate reaches
// it.
func TestMarkHeldByGatedPartition(t *testing.T) {
	const parts, perPart = 4, 20
	keys := keysByPartition(parts)
	gate := make(chan struct{})
	var gateOnce sync.Once
	open := func() { gateOnce.Do(func() { close(gate) }) }
	defer open()
	var p0 atomic.Uint64
	e := New(Config{Partitions: parts, BatchInterval: time.Millisecond}, func(ctx *Context, rec Record) []any {
		if ctx.Partition() == 0 {
			<-gate
			p0.Add(1)
		}
		return []any{rec.Value}
	})
	e.SetSink(func(any) {})
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	for i := 0; i < perPart; i++ {
		for p := 0; p < parts; p++ {
			if err := e.Send(Record{Key: keys[p], Value: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := e.Mark()
	for p, n := range m {
		if n != perPart {
			t.Fatalf("mark[%d] = %d, want %d", p, n, perPart)
		}
	}
	others := append(Mark(nil), m...)
	others[0] = 0
	testutil.WaitUntil(t, 10*time.Second, func() bool { return e.Reached(others) },
		"partitions 1-3 never retired their records")
	if e.Reached(m) {
		t.Fatal("mark reached while partition 0 is gated")
	}
	if n := p0.Load(); n != 0 {
		t.Fatalf("gated partition processed %d records", n)
	}
	open()
	testutil.WaitUntil(t, 10*time.Second, func() bool { return e.Reached(m) },
		"mark not reached after the gate opened")
	e.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if mm := e.Metrics(); mm.Records != parts*perPart {
		t.Fatalf("records = %d, want %d", mm.Records, parts*perPart)
	}
}

// TestMarkHeldByRetriedRecord: a record the PanicHook keeps requeuing
// holds its partition's published progress back, although the records
// queued behind it process, sink and retire; once it succeeds the mark
// is reached.
func TestMarkHeldByRetriedRecord(t *testing.T) {
	var healed atomic.Bool
	var sunk atomic.Uint64
	e := New(Config{Partitions: 1, BatchInterval: time.Millisecond}, func(ctx *Context, rec Record) []any {
		if rec.Key == "poison" && !healed.Load() {
			panic("poison")
		}
		return []any{rec.Value}
	})
	e.cfg.PanicHook = func(int, Record, any) bool { return true }
	e.SetSink(func(any) { sunk.Add(1) })
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	if err := e.Send(Record{Key: "poison", Value: -1}); err != nil {
		t.Fatal(err)
	}
	first := e.Mark()
	const later = 10
	for i := 0; i < later; i++ {
		if err := e.Send(Record{Key: "ok", Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Mark()
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return sunk.Load() == later && e.Metrics().Retried >= 2
	}, "records behind the retried one never sank")
	if e.Reached(first) || e.Reached(m) {
		t.Fatal("a mark behind a record awaiting retry was reached")
	}
	healed.Store(true)
	testutil.WaitUntil(t, 10*time.Second, func() bool { return e.Reached(m) },
		"mark not reached after the retried record succeeded")
	e.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if mm := e.Metrics(); mm.Records-mm.Retried != later+1 {
		t.Fatalf("records − retried = %d, want %d", mm.Records-mm.Retried, later+1)
	}
}

// TestTwoSendersMarks: SendBatch may be called from several goroutines
// at once. Each sender takes a mark after each of its sends and waits for
// it; the first time it is reached, every record of that send has been
// through the sink. Per-key order holds for each sender's keys.
func TestTwoSendersMarks(t *testing.T) {
	const senders, rounds, perRound = 2, 30, 24
	var mu sync.Mutex
	sunk := make(map[string]bool)
	last := make(map[string]int)
	orderErr := ""
	e := New(Config{Partitions: 4, BatchInterval: time.Millisecond}, func(ctx *Context, rec Record) []any {
		time.Sleep(20 * time.Microsecond) // widen the window a premature mark would show in
		return []any{rec}
	})
	e.SetSink(func(o any) {
		rec := o.(Record)
		v := rec.Value.(int)
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := last[rec.Key]; ok && v <= prev && orderErr == "" {
			orderErr = fmt.Sprintf("key %s: %d after %d", rec.Key, v, prev)
		}
		last[rec.Key] = v
		sunk[rec.Key+"/"+strconv.Itoa(v)] = true
	})
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				buf := e.RecordBuffer()
				var want []string
				for i := 0; i < perRound; i++ {
					key := fmt.Sprintf("s%d-k%d", s, i%5)
					v := r*perRound + i
					buf = append(buf, Record{Key: key, Value: v})
					want = append(want, key+"/"+strconv.Itoa(v))
				}
				if err := e.SendBatch(buf); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
				m := e.Mark()
				deadline := time.Now().Add(10 * time.Second)
				for !e.Reached(m) {
					if time.Now().After(deadline) {
						t.Errorf("sender %d round %d: mark %v never reached", s, r, m)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
				mu.Lock()
				for _, k := range want {
					if !sunk[k] {
						t.Errorf("sender %d round %d: mark reached before %s was sunk", s, r, k)
						break
					}
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	e.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if orderErr != "" {
		t.Fatalf("per-key order violated: %s", orderErr)
	}
	if len(sunk) != senders*rounds*perRound {
		t.Fatalf("sank %d records, want %d", len(sunk), senders*rounds*perRound)
	}
}
