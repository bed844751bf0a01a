package logmanager

import (
	"context"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/bus"
	"loglens/internal/logtypes"
	"loglens/internal/store"
)

// noWaitBroker hands out readers without a Wait method, so the loop
// parks in the blocking long-poll Poll, as it does on a netbus reader.
type noWaitBroker struct{ *bus.Bus }

func (b noWaitBroker) Subscribe(group string, topics ...string) (bus.Reader, error) {
	r, err := b.Bus.Subscribe(group, topics...)
	return struct{ bus.Reader }{r}, err
}

// startRun runs m until the test ends and checks that Run returns nil.
func startRun(t *testing.T, m *Manager) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Run did not exit after cancel")
		}
	})
	return cancel
}

func pause(t *testing.T, m *Manager) map[int]int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cut, err := m.Pause(ctx)
	if err != nil {
		t.Fatalf("Pause: %v", err)
	}
	return cut
}

func sendN(t *testing.T, a *agent.Agent, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := a.Send("x"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPauseCutsAtHandledOffsets: Pause ends the loop's park in Wait and
// returns the offsets it handled as the cut; nothing published during
// the pause is consumed until Resume.
func TestPauseCutsAtHandledOffsets(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*bus.Bus) bus.Broker
	}{
		{"wait", func(b *bus.Bus) bus.Broker { return b }},
		{"long-poll", func(b *bus.Bus) bus.Broker { return noWaitBroker{b} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := bus.New()
			m := New(tc.wrap(b), nil, Config{}, nil)
			a, err := agent.New(b, agent.Config{Source: "s", TopicPartitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			startRun(t, m)
			sendN(t, a, 5)
			awaitHandled(t, b, m)

			cut := pause(t, m)
			ends := endOffsets(t, b)
			for part, end := range ends {
				if cut[part] != end {
					t.Fatalf("cut %v, want the end offsets %v", cut, ends)
				}
			}
			sendN(t, a, 3)
			time.Sleep(20 * time.Millisecond)
			if got := m.Received(); got != 5 {
				t.Fatalf("received %d while paused, want 5", got)
			}
			m.Resume()
			awaitHandled(t, b, m)
			if got := m.Received(); got != 8 {
				t.Fatalf("received %d after Resume, want 8", got)
			}
		})
	}
}

// TestPauseBeforeRun: a loop that is not running is parked, so Pause
// returns at once, and a loop started under the pause stays parked.
func TestPauseBeforeRun(t *testing.T) {
	b := bus.New()
	m := New(b, nil, Config{}, nil)
	a, err := agent.New(b, agent.Config{Source: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if cut := pause(t, m); len(cut) != 0 {
		t.Fatalf("cut %v before any batch, want empty", cut)
	}
	startRun(t, m)
	sendN(t, a, 2)
	time.Sleep(20 * time.Millisecond)
	if got := m.Received(); got != 0 {
		t.Fatalf("received %d under the pause, want 0", got)
	}
	m.Resume()
	awaitHandled(t, b, m)
}

// TestPausedLoopExitsOnCancel: a loop parked on a pause still returns
// when its context ends, and Run leaves the manager parked.
func TestPausedLoopExitsOnCancel(t *testing.T) {
	b := bus.New()
	m := New(b, nil, Config{}, nil)
	if _, err := agent.New(b, agent.Config{Source: "s"}); err != nil {
		t.Fatal(err)
	}
	cancel := startRun(t, m)
	pause(t, m)
	cancel()
	m.Resume()
	pause(t, m)
}

// TestOnBatchDisablesAutoCommit: with OnBatch set the consumer commits
// nothing itself; OnBatch sees every message, and Handled covers them.
func TestOnBatchDisablesAutoCommit(t *testing.T) {
	b := bus.New()
	var seen int
	m := New(b, store.New(), Config{
		ForwardBatch: func([]logtypes.Log) {},
		OnBatch:      func(msgs []bus.Message) { seen += len(msgs) },
	}, nil)
	a, err := agent.New(b, agent.Config{Source: "s"})
	if err != nil {
		t.Fatal(err)
	}
	startRun(t, m)
	sendN(t, a, 4)
	awaitHandled(t, b, m)
	lag, err := b.Subscribe(Group, agent.LogsTopic)
	if err != nil {
		t.Fatal(err)
	}
	if lag.Lag() != 4 || len(m.Committed()) != 0 {
		t.Fatalf("lag %d, committed %v: the consumer auto-committed", lag.Lag(), m.Committed())
	}
	pause(t, m) // orders the read of seen after the loop's writes
	if seen != 4 {
		t.Fatalf("OnBatch saw %d messages, want 4", seen)
	}
}

// TestRunSeedsHandledFromCommitted: a group restored ahead of a rebuilt
// topic has nothing left to handle, so Handled starts at its committed
// offsets.
func TestRunSeedsHandledFromCommitted(t *testing.T) {
	b := bus.New()
	if err := b.CreateTopic(agent.LogsTopic, 2); err != nil {
		t.Fatal(err)
	}
	b.SeekGroup(Group, agent.LogsTopic, 1, 7)
	m := New(b, nil, Config{}, nil)
	startRun(t, m)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Await(ctx, func() bool { return m.Handled()[1] == 7 }); err != nil {
		t.Fatalf("handled %v, want partition 1 seeded at 7", m.Handled())
	}
}
