package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkedFor is how long a waiter must stay parked to count as parked.
const parkedFor = 150 * time.Millisecond

// waitReleasedBy starts Wait, requires it to stay parked, runs release,
// and requires Wait to return nil promptly afterwards.
func waitReleasedBy(t *testing.T, c *Consumer, what string, release func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Wait(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("%s: Wait returned %v before anything happened", what, err)
	case <-time.After(parkedFor):
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: Wait = %v, want nil", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not release Wait", what)
	}
}

// TestWaitWakesOnAnySubscribedPartition pins the wait contract: with
// nothing unread, Wait stays parked until its context ends, and a
// publish to any partition of any subscribed topic, or a rewind of a
// read offset, releases it at once.
func TestWaitWakesOnAnySubscribedPartition(t *testing.T) {
	b := New()
	if err := b.CreateTopic("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("b", 2); err != nil {
		t.Fatal(err)
	}
	c, err := b.NewConsumer("g", "a", "b")
	if err != nil {
		t.Fatal(err)
	}

	// No data: parked until the context is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Wait(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("Wait returned %v with no data and a live context", err)
	case <-time.After(parkedFor):
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
	}

	waitReleasedBy(t, c, "publish to partition 3", func() {
		if _, err := b.PublishTo("a", 3, "", []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	})
	if n := len(c.TryPoll(0)); n != 1 {
		t.Fatalf("polled %d messages, want 1", n)
	}

	waitReleasedBy(t, c, "Seek rewind", func() {
		if err := c.Seek("a", 3, 0); err != nil {
			t.Fatal(err)
		}
	})
	c.TryPoll(0)

	waitReleasedBy(t, c, "SeekGroup rewind", func() { b.SeekGroup("g", "a", 3, 0) })
	c.TryPoll(0)

	waitReleasedBy(t, c, "publish to the second topic", func() {
		if _, err := b.PublishTo("b", 1, "", []byte("y"), nil); err != nil {
			t.Fatal(err)
		}
	})
	c.TryPoll(0)

	// Unread messages: Wait returns at once without consuming them.
	b.PublishTo("a", 2, "", []byte("z"), nil)
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(c.TryPoll(0)); n != 1 {
		t.Fatalf("Wait consumed: poll after it got %d messages, want 1", n)
	}
}

// TestResetReadToCommittedWakesWaiters: the reconnect rewind is a
// rewind like any other.
func TestResetReadToCommittedWakesWaiters(t *testing.T) {
	b := New()
	b.CreateTopic("a", 2)
	c, _ := b.NewConsumer("g", "a")
	c.DisableAutoCommit()
	b.PublishTo("a", 1, "", []byte("x"), nil)
	if n := len(c.TryPoll(0)); n != 1 {
		t.Fatalf("polled %d, want 1", n)
	}
	waitReleasedBy(t, c, "ResetReadToCommitted", func() { b.ResetReadToCommitted("g") })
	if n := len(c.TryPoll(0)); n != 1 {
		t.Fatalf("redelivered %d, want 1", n)
	}
}

// TestWaitAllocatesNothing: parking allocates no goroutine, channel or
// timer per wait.
func TestWaitAllocatesNothing(t *testing.T) {
	b := New()
	b.CreateTopic("a", 4)
	c, _ := b.NewConsumer("g", "a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if a := testing.AllocsPerRun(200, func() {
		if err := c.Wait(ctx); err == nil {
			t.Fatal("Wait on a cancelled context with no data returned nil")
		}
	}); a != 0 {
		t.Fatalf("Wait allocates %.0f times per call, want 0", a)
	}
}

// TestConcurrentPollersDrainEverything runs blocking pollers of one group
// against concurrent producers: every message is delivered exactly once
// and no poller stays parked on data another partition holds.
func TestConcurrentPollersDrainEverything(t *testing.T) {
	const producers, perProducer, pollers = 4, 500, 3
	b := New()
	b.CreateTopic("a", 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got atomic.Int64
	seen := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < pollers; i++ {
		c, err := b.NewConsumer("g", "a")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msgs, err := c.Poll(ctx, 7)
				if err != nil {
					return
				}
				mu.Lock()
				for _, m := range msgs {
					if seen[string(m.Value)] {
						t.Errorf("message %s delivered twice", m.Value)
					}
					seen[string(m.Value)] = true
				}
				mu.Unlock()
				if got.Add(int64(len(msgs))) == producers*perProducer {
					cancel()
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := fmt.Sprintf("%d-%d", p, i)
				if _, _, err := b.Publish("a", v, []byte(v), nil); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	select {
	case <-ctx.Done():
	case <-time.After(30 * time.Second):
		t.Errorf("delivered %d of %d messages", got.Load(), producers*perProducer)
		cancel()
	}
	wg.Wait()
}
