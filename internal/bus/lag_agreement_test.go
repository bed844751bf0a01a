package bus

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// gaugeLagSum totals every bus_lag gauge in the snapshot.
func gaugeLagSum(snap metrics.Snapshot) int64 {
	var sum int64
	for key, v := range snap.Gauges {
		if strings.HasPrefix(key, "bus_lag{") || key == "bus_lag" {
			sum += v
		}
	}
	return sum
}

// TestLagAndGaugeAgree: Consumer.Lag() walks the partition logs live,
// while the bus_lag gauge is written on the TryPoll consume path — two
// independent computations of the same quantity. At every quiescent
// point (no publish racing a poll) they must agree exactly.
func TestLagAndGaugeAgree(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New()
	b.Instrument(&obs.Ops{Metrics: reg})
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	c, err := b.NewConsumer("g", "t")
	if err != nil {
		t.Fatal(err)
	}

	// Quiescent partial consumption: 30 in, 10 out. Lag() and the gauge
	// must both say 20.
	for i := 0; i < 30; i++ {
		if _, _, err := b.Publish("t", "k"+strconv.Itoa(i), []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	consumed := len(c.TryPoll(10))
	if consumed != 10 {
		t.Fatalf("TryPoll(10) returned %d messages", consumed)
	}
	if lag := c.Lag(); lag != 20 {
		t.Fatalf("Lag() = %d, want 20", lag)
	}
	// The gauge only covers partitions the consumer has polled; drain
	// the rest so every partition's gauge is fresh, then both paths must
	// land on zero together.
	consumed += len(c.TryPoll(0))
	if consumed != 30 {
		t.Fatalf("consumed %d messages total, want 30", consumed)
	}
	if lag, gauge := c.Lag(), gaugeLagSum(reg.Snapshot()); lag != 0 || gauge != 0 {
		t.Fatalf("after full drain: Lag() = %d, gauge sum = %d, want 0/0", lag, gauge)
	}

	// Concurrent produce/consume: four producers race one polling
	// consumer. Mid-flight the two paths may disagree transiently (the
	// gauge trails the partition end), but once the producers stop and a
	// final poll drains the backlog, both must read exactly zero again.
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	var polled int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for polled < producers*perProducer {
			polled += len(c.TryPoll(64))
		}
	}()
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				key := "p" + strconv.Itoa(g) + "-" + strconv.Itoa(i)
				if _, _, err := b.Publish("t", key, []byte("y"), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	if polled != producers*perProducer {
		t.Fatalf("consumed %d of %d concurrent messages", polled, producers*perProducer)
	}
	// One more quiescent poll refreshes the gauges now that publishing
	// has stopped.
	if extra := len(c.TryPoll(0)); extra != 0 {
		t.Fatalf("unexpected %d stragglers after the drain loop", extra)
	}
	if lag, gauge := c.Lag(), gaugeLagSum(reg.Snapshot()); lag != 0 || gauge != lag {
		t.Fatalf("after concurrent run: Lag() = %d, gauge sum = %d, want both 0", lag, gauge)
	}
}
