package bus

import (
	"context"
	"testing"
	"time"

	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// TestMetricsProduceConsumeLag: the bus mirrors per-partition produce and
// consume counts plus consumer lag into the registry, for topics declared
// both before and after Instrument.
func TestMetricsProduceConsumeLag(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New()
	b.CreateTopic("early", 1) // instrumented retroactively
	b.Instrument(&obs.Ops{Metrics: reg})
	b.CreateTopic("late", 2) // instrumented at creation

	for i := 0; i < 4; i++ {
		if _, _, err := b.Publish("early", "k", []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, _, err := b.Publish("late", "k", []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counter("bus_produced_total", "topic", "early", "partition", "0"); got != 4 {
		t.Errorf("early produced = %d, want 4", got)
	}
	if got := snap.CounterSum("bus_produced_total"); got != 10 {
		t.Errorf("produced sum = %d, want 10", got)
	}

	// Consume half the early topic via Seek-free polling, then check lag.
	c, err := b.NewConsumer("g1", "early")
	if err != nil {
		t.Fatal(err)
	}
	if msgs := c.TryPoll(0); len(msgs) != 4 {
		t.Fatalf("polled %d, want 4", len(msgs))
	}
	snap = reg.Snapshot()
	labels := []string{"group", "g1", "topic", "early", "partition", "0"}
	if got := snap.Counter("bus_consumed_total", labels...); got != 4 {
		t.Errorf("consumed = %d, want 4", got)
	}
	if got := snap.Gauge("bus_lag", labels...); got != 0 {
		t.Errorf("lag = %d, want 0", got)
	}

	// Publish two more without polling: lag gauge refreshes on next poll.
	b.Publish("early", "k", []byte("v"), nil)
	b.Publish("early", "k", []byte("v"), nil)
	c.TryPoll(1)
	if got := reg.Snapshot().Gauge("bus_lag", labels...); got != 1 {
		t.Errorf("lag after partial poll = %d, want 1", got)
	}
}

// TestTopicsAndPartitions covers the inventory accessors.
func TestTopicsAndPartitions(t *testing.T) {
	b := New()
	b.CreateTopic("a", 1)
	b.CreateTopic("b", 3)
	if got := b.Topics(); len(got) != 2 {
		t.Errorf("topics = %v", got)
	}
	n, err := b.Partitions("b")
	if err != nil || n != 3 {
		t.Errorf("partitions(b) = %d, %v", n, err)
	}
	if _, err := b.Partitions("nope"); err == nil {
		t.Error("unknown topic must fail")
	}
}

// TestBlockingPollWakesOnPublish: a consumer blocked in Poll wakes when a
// message arrives (the waitAny path).
func TestBlockingPollWakesOnPublish(t *testing.T) {
	b := New()
	b.CreateTopic("t", 1)
	c, err := b.NewConsumer("g", "t")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		b.Publish("t", "k", []byte("wake"), nil)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	msgs, err := c.Poll(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Value) != "wake" {
		t.Fatalf("msgs = %v", msgs)
	}
}
