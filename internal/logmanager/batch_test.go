package logmanager

import (
	"context"
	"fmt"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/bus"
	"loglens/internal/logtypes"
	"loglens/internal/modelmgr"
	"loglens/internal/store"
)

// event is one downstream hand-off observed by the batched-forward tests:
// either a batch of logs or a heartbeat, in arrival order.
type event struct {
	logs []logtypes.Log
	hb   bool
	hbAt time.Time
}

func setupBatched(t *testing.T, cfg Config) (*bus.Bus, *Manager, *[]event) {
	t.Helper()
	b := bus.New()
	var events []event
	cfg.ForwardBatch = func(logs []logtypes.Log) {
		// The slice is only valid for the duration of the call: copy.
		events = append(events, event{logs: append([]logtypes.Log(nil), logs...)})
	}
	m := New(b, store.New(), cfg, func(source string, ts time.Time) {
		events = append(events, event{hb: true, hbAt: ts})
	})
	return b, m, &events
}

// TestForwardBatchAccumulates: a poll batch of logs arrives downstream
// as one ForwardBatch call, not one per log.
func TestForwardBatchAccumulates(t *testing.T) {
	b, m, events := setupBatched(t, Config{})
	a, err := agent.New(b, agent.Config{Source: "web"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a.Send(fmt.Sprintf("line %d", i))
	}
	if n := m.DrainOnce(); n != 8 {
		t.Fatalf("drained %d", n)
	}
	var total int
	for _, ev := range *events {
		if ev.hb {
			t.Fatalf("unexpected heartbeat event")
		}
		total += len(ev.logs)
	}
	if total != 8 {
		t.Fatalf("forwarded %d logs, want 8", total)
	}
	if len(*events) >= 8 {
		t.Errorf("%d hand-offs for 8 logs: batching did not amortize", len(*events))
	}
	for i, l := range (*events)[0].logs {
		if l.Raw != fmt.Sprintf("line %d", i) {
			t.Fatalf("log %d = %+v, out of order", i, l)
		}
	}
}

// TestHeartbeatFlushesBatch: a heartbeat interleaved in a poll batch must
// not overtake the logs consumed before it — the pending batch flushes
// first, so downstream sees logs, then the heartbeat, then later logs.
func TestHeartbeatFlushesBatch(t *testing.T) {
	b, m, events := setupBatched(t, Config{})
	b.CreateTopic(agent.LogsTopic, 1)
	hbAt := time.Date(2016, 2, 23, 9, 0, 31, 0, time.UTC)
	pub := func(raw string) {
		b.Publish(agent.LogsTopic, "svc", []byte(raw), map[string]string{
			agent.HeaderSource: "svc",
		})
	}
	pub("before-1")
	pub("before-2")
	b.Publish(agent.LogsTopic, "svc", nil, map[string]string{
		agent.HeaderSource:    "svc",
		agent.HeaderHeartbeat: hbAt.Format(time.RFC3339Nano),
	})
	pub("after-1")
	m.DrainOnce()

	got := *events
	if len(got) != 3 {
		t.Fatalf("events = %d, want logs/heartbeat/logs: %+v", len(got), got)
	}
	if got[0].hb || len(got[0].logs) != 2 || got[0].logs[1].Raw != "before-2" {
		t.Fatalf("first hand-off = %+v, want the two pre-heartbeat logs", got[0])
	}
	if !got[1].hb || !got[1].hbAt.Equal(hbAt) {
		t.Fatalf("second hand-off = %+v, want the heartbeat", got[1])
	}
	if got[2].hb || len(got[2].logs) != 1 || got[2].logs[0].Raw != "after-1" {
		t.Fatalf("third hand-off = %+v, want the post-heartbeat log", got[2])
	}
}

// TestBatchBufferRecycled: the manager's accumulation buffer is reused
// across flushes and zeroed in between, so pooled capacity cannot pin
// raw-log payloads.
func TestBatchBufferRecycled(t *testing.T) {
	b, m, events := setupBatched(t, Config{})
	a, _ := agent.New(b, agent.Config{Source: "web"})
	a.Send("first")
	m.DrainOnce()
	a.Send("second")
	m.DrainOnce()
	if len(*events) != 2 {
		t.Fatalf("events = %d", len(*events))
	}
	if len(m.batch) != 0 {
		t.Fatalf("batch not drained: %d", len(m.batch))
	}
	for _, l := range m.batch[:cap(m.batch)] {
		if l != (logtypes.Log{}) {
			t.Fatalf("recycled batch buffer retains %+v", l)
		}
	}
}

// TestHandledCoversPollToForward: the auto-committing poll commits a
// batch's offsets before the batch goes downstream, so committed lag
// alone reads "drained" while the batch is still in hand. Handled only
// covers the batch once ForwardBatch has returned, so a wait on it (what
// Pipeline.Drain does) cannot return mid-forward.
func TestHandledCoversPollToForward(t *testing.T) {
	b := bus.New()
	entered, release := make(chan struct{}), make(chan struct{})
	m := New(b, store.New(), Config{ForwardBatch: func([]logtypes.Log) {
		close(entered)
		<-release
	}}, nil)
	a, err := agent.New(b, agent.Config{Source: "s"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()

	a.Send("one line")
	<-entered
	lag, err := b.Subscribe(Group, agent.LogsTopic)
	if err != nil {
		t.Fatal(err)
	}
	ends := endOffsets(t, b)
	if lag.Lag() != 0 || handledThrough(m, ends) {
		t.Fatalf("mid-forward: lag %d handled %v, want lag 0 and the batch not yet handled", lag.Lag(), m.Handled())
	}
	drained := make(chan error, 1)
	go func() {
		wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer wcancel()
		drained <- m.Await(wctx, func() bool { return handledThrough(m, ends) })
	}()
	select {
	case err := <-drained:
		t.Fatalf("wait on Handled returned mid-forward (%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Handled never covered the forwarded batch: %v", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("Run returned %v", err)
	}
}

// TestArchiveLandsBeforeForward: a poll batch's logs are archived — one
// document per log, per source, in order, in the store's canonical form
// — by the time ForwardBatch sees the batch, and OnBatch runs after both.
func TestArchiveLandsBeforeForward(t *testing.T) {
	b := bus.New()
	st := store.New()
	var order []string
	m := New(b, st, Config{
		ArchiveLogs: true,
		ForwardBatch: func(logs []logtypes.Log) {
			order = append(order, "forward")
			for _, src := range []string{"web", "db"} {
				if n := st.Index(modelmgr.LogsIndexFor(src)).Count(); n != 3 {
					t.Errorf("%s: %d archived when the batch was forwarded, want 3", src, n)
				}
			}
		},
		OnBatch: func([]bus.Message) { order = append(order, "onbatch") },
	}, nil)
	web, _ := agent.New(b, agent.Config{Source: "web"})
	db, _ := agent.New(b, agent.Config{Source: "db"})
	for i := 0; i < 3; i++ {
		web.Send(fmt.Sprintf("web line %d", i))
		db.Send(fmt.Sprintf("db line %d", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()
	awaitHandled(t, b, m)
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(order) < 2 || order[0] != "forward" || order[1] != "onbatch" {
		t.Fatalf("hook order %v, want forward then onbatch", order)
	}
	hits := st.Index(modelmgr.LogsIndexFor("web")).Search(store.Query{SortBy: "seq"})
	if len(hits) != 3 {
		t.Fatalf("web archive holds %d docs, want 3", len(hits))
	}
	for i, h := range hits {
		if h.ID != fmt.Sprintf("logs-web-%d", i+1) || h.Doc["raw"] != fmt.Sprintf("web line %d", i) || h.Doc["source"] != "web" {
			t.Errorf("archived doc %d = %s %v", i, h.ID, h.Doc)
		}
		if _, ok := h.Doc["seq"].(float64); !ok {
			t.Errorf("archived seq %T, want float64", h.Doc["seq"])
		}
		if s, ok := h.Doc["arrival"].(string); !ok {
			t.Errorf("archived arrival %T, want an RFC 3339 string", h.Doc["arrival"])
		} else if _, err := time.Parse(time.RFC3339Nano, s); err != nil {
			t.Errorf("archived arrival %q: %v", s, err)
		}
	}
}
