package stream

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlowPartitionDoesNotStallOthers: with persistent per-partition
// workers there is no global batch barrier, so one partition's slow (or
// wedged) operator must not block the other partitions' progress. The
// old fan-out engine joined every partition at a per-batch barrier; this
// pins the independence property the per-core sharding exists for.
func TestSlowPartitionDoesNotStallOthers(t *testing.T) {
	const parts = 4
	const perPart = 50

	// Partition 0's operator parks on the gate; the others run free with
	// small seeded jitter so their batch boundaries interleave unevenly.
	gate := make(chan struct{})
	var fastDone [parts]atomic.Uint64
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	jitter := func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return time.Duration(rng.Intn(200)) * time.Microsecond
	}

	keys := keysByPartition(parts)

	e := New(Config{Partitions: parts, BatchInterval: time.Millisecond}, func(ctx *Context, rec Record) []any {
		if ctx.Partition() == 0 {
			<-gate
		} else {
			time.Sleep(jitter())
		}
		fastDone[ctx.Partition()].Add(1)
		return []any{rec.Value}
	})

	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()

	for i := 0; i < perPart; i++ {
		for p := 0; p < parts; p++ {
			if err := e.Send(Record{Key: keys[p], Value: i}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every fast partition must finish all its records while partition 0
	// is still parked on its first one.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := fastDone[1].Load() + fastDone[2].Load() + fastDone[3].Load()
		if got == 3*perPart {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fast partitions stalled behind the slow one: %d/%d processed "+
				"(p1=%d p2=%d p3=%d, slow p0=%d)", got, 3*perPart,
				fastDone[1].Load(), fastDone[2].Load(), fastDone[3].Load(), fastDone[0].Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := fastDone[0].Load(); n != 0 {
		t.Fatalf("slow partition processed %d records with the gate held", n)
	}

	// Release the slow partition; everything drains and conservation
	// closes exactly.
	close(gate)
	e.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Records-m.Retried != parts*perPart || !e.Reached(e.Mark()) {
		t.Fatalf("conservation broken: records=%d retried=%d, want %d, mark %v reached %v",
			m.Records, m.Retried, parts*perPart, e.Mark(), e.Reached(e.Mark()))
	}
	if m.RecordsDropped != 0 {
		t.Fatalf("records dropped = %d, want 0", m.RecordsDropped)
	}
	for p := 0; p < parts; p++ {
		if n := fastDone[p].Load(); n != perPart {
			t.Errorf("partition %d processed %d, want %d", p, n, perPart)
		}
	}
}
