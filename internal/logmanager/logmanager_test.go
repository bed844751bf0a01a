package logmanager

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/bus"
	"loglens/internal/logtypes"
	"loglens/internal/modelmgr"
	"loglens/internal/store"
)

// setup builds a Manager whose ForwardBatch collects copies of the
// forwarded logs and whose heartbeat hook is hb.
func setup(t *testing.T, cfg Config, hb func(source string, ts time.Time)) (*bus.Bus, *store.Store, *Manager, *[]logtypes.Log, *sync.Mutex) {
	t.Helper()
	b := bus.New()
	st := store.New()
	var mu sync.Mutex
	var forwarded []logtypes.Log
	cfg.ForwardBatch = func(logs []logtypes.Log) {
		mu.Lock()
		forwarded = append(forwarded, logs...)
		mu.Unlock()
	}
	return b, st, New(b, st, cfg, hb), &forwarded, &mu
}

// endOffsets snapshots the logs topic's end offset per partition.
func endOffsets(t *testing.T, b *bus.Bus) map[int]int64 {
	t.Helper()
	n, err := b.Partitions(agent.LogsTopic)
	if err != nil {
		t.Fatal(err)
	}
	ends := make(map[int]int64)
	for part := 0; part < n; part++ {
		ends[part], _ = b.EndOffset(agent.LogsTopic, part)
	}
	return ends
}

// handledThrough reports whether m has handled every message below ends.
func handledThrough(m *Manager, ends map[int]int64) bool {
	handled := m.Handled()
	for part, end := range ends {
		if handled[part] < end {
			return false
		}
	}
	return true
}

// awaitHandled waits until m has handled everything published so far.
func awaitHandled(t *testing.T, b *bus.Bus, m *Manager) {
	t.Helper()
	ends := endOffsets(t, b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Await(ctx, func() bool { return handledThrough(m, ends) }); err != nil {
		t.Fatalf("handled %v, want %v: %v", m.Handled(), ends, err)
	}
}

func TestDrainOnceForwardsAndArchives(t *testing.T) {
	b, st, m, forwarded, mu := setup(t, Config{ArchiveLogs: true}, nil)
	a, err := agent.New(b, agent.Config{Source: "web"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.Send(fmt.Sprintf("line %d", i))
	}
	if n := m.DrainOnce(); n != 5 {
		t.Fatalf("drained %d", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*forwarded) != 5 {
		t.Fatalf("forwarded %d", len(*forwarded))
	}
	l := (*forwarded)[0]
	if l.Source != "web" || l.Seq != 1 || l.Raw != "line 0" {
		t.Errorf("log = %+v", l)
	}
	if l.Arrival.IsZero() {
		t.Error("arrival not set")
	}
	// Archived under the per-source index.
	if got := st.Index(modelmgr.LogsIndexFor("web")).Count(); got != 5 {
		t.Errorf("archived = %d", got)
	}
	if m.Received() != 5 {
		t.Errorf("received = %d", m.Received())
	}
}

func TestArchiveDisabled(t *testing.T) {
	b, st, m, _, _ := setup(t, Config{}, nil)
	a, _ := agent.New(b, agent.Config{Source: "web"})
	a.Send("x")
	m.DrainOnce()
	if got := st.Index(modelmgr.LogsIndexFor("web")).Count(); got != 0 {
		t.Errorf("archived = %d with archiving disabled", got)
	}
}

func TestSourceFallbackToKey(t *testing.T) {
	b, _, m, forwarded, mu := setup(t, Config{}, nil)
	b.CreateTopic(agent.LogsTopic, 2)
	// A message without the source header but with a key.
	b.Publish(agent.LogsTopic, "keyed-source", []byte("raw"), nil)
	m.DrainOnce()
	mu.Lock()
	defer mu.Unlock()
	if len(*forwarded) != 1 || (*forwarded)[0].Source != "keyed-source" {
		t.Errorf("forwarded = %+v", *forwarded)
	}
}

func TestUnidentifiableDropped(t *testing.T) {
	b, _, m, forwarded, mu := setup(t, Config{}, nil)
	b.CreateTopic(agent.LogsTopic, 1)
	b.Publish(agent.LogsTopic, "", []byte("orphan"), nil)
	m.DrainOnce()
	mu.Lock()
	defer mu.Unlock()
	if len(*forwarded) != 0 {
		t.Errorf("unidentifiable message forwarded: %+v", *forwarded)
	}
}

func TestRunConsumesLive(t *testing.T) {
	b, _, m, forwarded, mu := setup(t, Config{}, nil)
	a, _ := agent.New(b, agent.Config{Source: "live"})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()

	for i := 0; i < 3; i++ {
		a.Send("x")
	}
	awaitHandled(t, b, m)
	mu.Lock()
	if n := len(*forwarded); n != 3 {
		t.Errorf("forwarded %d of 3", n)
	}
	mu.Unlock()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop")
	}
}

func TestHeartbeatTagRouting(t *testing.T) {
	var hbMu sync.Mutex
	var hbs []time.Time
	b, _, m, forwarded, mu := setup(t, Config{}, func(source string, ts time.Time) {
		if source != "svc" {
			t.Errorf("source = %q", source)
		}
		hbMu.Lock()
		hbs = append(hbs, ts)
		hbMu.Unlock()
	})
	b.CreateTopic(agent.LogsTopic, 1)
	want := time.Date(2016, 2, 23, 9, 0, 31, 0, time.UTC)
	b.Publish(agent.LogsTopic, "svc", nil, map[string]string{
		agent.HeaderSource:    "svc",
		agent.HeaderHeartbeat: want.Format(time.RFC3339Nano),
	})
	// A malformed heartbeat timestamp is dropped, not forwarded as a log.
	b.Publish(agent.LogsTopic, "svc", nil, map[string]string{
		agent.HeaderSource:    "svc",
		agent.HeaderHeartbeat: "garbage",
	})
	m.DrainOnce()
	hbMu.Lock()
	defer hbMu.Unlock()
	if len(hbs) != 1 || !hbs[0].Equal(want) {
		t.Errorf("heartbeats = %v", hbs)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*forwarded) != 0 {
		t.Errorf("heartbeat leaked into the log path: %v", *forwarded)
	}
}
