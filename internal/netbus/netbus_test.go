package netbus

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"loglens/internal/bus"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// startBroker brings up a server on loopback and a connected client.
func startBroker(t *testing.T, opt Options) (*Server, *Client) {
	t.Helper()
	srv := NewServer(bus.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(srv.Close)
	c := Dial(addr, opt)
	t.Cleanup(c.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitConnected(ctx); err != nil {
		t.Fatalf("WaitConnected: %v", err)
	}
	return srv, c
}

// publishSeq publishes one message with the idempotent-producer identity
// attached, as the spooling Publisher does.
func publishSeq(c *Client, topic, key string, value []byte, headers map[string]string, source string, seq uint64) error {
	_, err := c.call(OpPublish, Request{
		Topic: topic, Key: key, Value: value, Headers: headers,
		Source: source, Seq: seq,
	})
	return err
}

func TestRoundTrip(t *testing.T) {
	_, c := startBroker(t, Options{})

	if err := c.CreateTopic("logs", 2); err != nil {
		t.Fatalf("CreateTopic: %v", err)
	}
	if n, err := c.Partitions("logs"); err != nil || n != 2 {
		t.Fatalf("Partitions = %d, %v; want 2", n, err)
	}
	if _, err := c.Partitions("nope"); err == nil {
		t.Fatal("Partitions(nope) should fail")
	}

	part, off, err := c.Publish("logs", "k1", []byte("hello"), map[string]string{"source": "s1"})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if off != 0 {
		t.Fatalf("first offset = %d, want 0", off)
	}

	r, err := c.Subscribe("g1", "logs")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	msgs, err := r.Poll(ctx, 10)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("Poll = %d msgs, %v; want 1", len(msgs), err)
	}
	m := msgs[0]
	if string(m.Value) != "hello" || m.Partition != part || m.Headers["source"] != "s1" {
		t.Fatalf("message = %+v", m)
	}

	if err := r.Commit("logs", m.Partition, m.Offset+1); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	offs := c.GroupOffsets("g1")
	if offs[bus.PartitionKey("logs", m.Partition)] != m.Offset+1 {
		t.Fatalf("GroupOffsets = %v", offs)
	}

	// Side-effect-free peek.
	peek, err := c.ReadFrom("logs", m.Partition, 0, 10)
	if err != nil || len(peek) != 1 || string(peek[0].Value) != "hello" {
		t.Fatalf("ReadFrom = %v, %v", peek, err)
	}

	// EndOffset after the publish.
	if end, err := c.EndOffset("logs", m.Partition); err != nil || end != 1 {
		t.Fatalf("EndOffset = %d, %v; want 1", end, err)
	}

	// Broadcast lands one copy per partition.
	if err := c.Broadcast("logs", "", []byte("ctl"), nil); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	total := int64(0)
	for p := 0; p < 2; p++ {
		end, _ := c.EndOffset("logs", p)
		total += end
	}
	if total != 3 { // 1 publish + 2 broadcast copies
		t.Fatalf("total offsets = %d, want 3", total)
	}
}

func TestSubscribeValidatesTopics(t *testing.T) {
	_, c := startBroker(t, Options{})
	if _, err := c.Subscribe("g", "missing-topic"); err == nil {
		t.Fatal("Subscribe to unknown topic should fail")
	}
	if _, err := c.Subscribe("g"); err == nil {
		t.Fatal("Subscribe with no topics should fail")
	}
}

func TestPublishDedup(t *testing.T) {
	srv, c := startBroker(t, Options{})
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // same (source, seq) three times
		if err := publishSeq(c, "logs", "s1", []byte("line-1"), nil, "s1", 1); err != nil {
			t.Fatalf("publishSeq #%d: %v", i, err)
		}
	}
	if err := publishSeq(c, "logs", "s1", []byte("line-2"), nil, "s1", 2); err != nil {
		t.Fatal(err)
	}
	if end, _ := srv.Bus().EndOffset("logs", 0); end != 2 {
		t.Fatalf("EndOffset = %d, want 2 (dedup failed)", end)
	}
}

// TestDedupClaimReleasedOnFailedPublish: a publish that fails broker-side
// (the topic does not exist yet) must not leave its sequence claimed, or
// the retry is acked as a duplicate and the line is never appended — the
// agent-started-before-the-worker case.
func TestDedupClaimReleasedOnFailedPublish(t *testing.T) {
	srv, c := startBroker(t, Options{})
	if err := publishSeq(c, "logs", "s1", []byte("line-1"), nil, "s1", 1); err == nil {
		t.Fatal("publish to a missing topic should fail")
	}
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	if err := publishSeq(c, "logs", "s1", []byte("line-1"), nil, "s1", 1); err != nil {
		t.Fatalf("retry after the topic exists: %v", err)
	}
	if end, _ := srv.Bus().EndOffset("logs", 0); end != 1 {
		t.Fatalf("EndOffset = %d, want 1 (retry was deduplicated against a failed claim)", end)
	}
	// A re-send after the successful publish still dedups.
	if err := publishSeq(c, "logs", "s1", []byte("line-1"), nil, "s1", 1); err != nil {
		t.Fatal(err)
	}
	if end, _ := srv.Bus().EndOffset("logs", 0); end != 1 {
		t.Fatalf("EndOffset = %d after a re-send, want 1", end)
	}
}

// TestPublisherBeforeTopicExists drives the same case through the
// spooling Publisher: one line sent, the topic created after the first
// attempt failed, then Drain.
func TestPublisherBeforeTopicExists(t *testing.T) {
	srv, c := startBroker(t, Options{})
	reg := metrics.NewRegistry()
	srv.SetMetrics(reg)
	spool, err := OpenSpool(SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(c, "logs", spool)
	defer pub.Close()
	if err := pub.Send("s1", 1, "line-1"); err != nil {
		t.Fatal(err)
	}
	served := reg.Counter("netbus_requests_served_total")
	deadline := time.Now().Add(5 * time.Second)
	for served.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the failed attempt answer
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pub.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := pub.Acked(); got != 1 {
		t.Fatalf("Acked = %d, want 1", got)
	}
	if end, _ := srv.Bus().EndOffset("logs", 0); end != 1 {
		t.Fatalf("EndOffset = %d, want 1: the acked line was never appended", end)
	}
}

func TestManualCommitSurvivesPollPath(t *testing.T) {
	_, c := startBroker(t, Options{})
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	r, err := c.Subscribe("g1", "logs")
	if err != nil {
		t.Fatal(err)
	}
	r.DisableAutoCommit()
	if _, _, err := c.Publish("logs", "k", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if msgs, err := r.Poll(ctx, 10); err != nil || len(msgs) != 1 {
		t.Fatalf("Poll = %d, %v", len(msgs), err)
	}
	// Manual mode: nothing committed until Commit is called.
	if offs := c.GroupOffsets("g1"); offs[bus.PartitionKey("logs", 0)] != 0 {
		t.Fatalf("auto-committed in manual mode: %v", offs)
	}
	if lag := r.Lag(); lag != 1 {
		t.Fatalf("Lag = %d, want 1 (committed frontier)", lag)
	}
	if rl := r.ReadLag(); rl != 0 {
		t.Fatalf("ReadLag = %d, want 0 (read frontier consumed)", rl)
	}
}

func TestBrokerRestartKeepsState(t *testing.T) {
	srv, c := startBroker(t, Options{BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond})
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Publish("logs", "k", []byte("before"), nil); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	srv.Stop()
	if err := c.CreateTopic("other", 1); err == nil {
		t.Fatal("publish against a dead broker should fail")
	}
	if _, err := srv.Listen(addr); err != nil {
		t.Fatalf("re-Listen: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitConnected(ctx); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	// Log written before the kill is still there: durable-log crash model.
	if end, err := c.EndOffset("logs", 0); err != nil || end != 1 {
		t.Fatalf("EndOffset after restart = %d, %v; want 1", end, err)
	}
	if got := reg.Counter("netbus_reconnect_total", "role", "worker").Value(); got < 1 {
		t.Fatalf("netbus_reconnect_total = %d, want >= 1", got)
	}
}

func TestResumeRedeliversUncommitted(t *testing.T) {
	srv, c := startBroker(t, Options{BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	r, err := c.Subscribe("g1", "logs")
	if err != nil {
		t.Fatal(err)
	}
	r.DisableAutoCommit()
	for i := 0; i < 5; i++ {
		if _, _, err := c.Publish("logs", "k", []byte(fmt.Sprintf("m%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	msgs, err := r.Poll(ctx, 10)
	if err != nil || len(msgs) != 5 {
		t.Fatalf("Poll = %d, %v; want 5", len(msgs), err)
	}
	// Commit only the first two, then bounce the broker. Resume must
	// rewind the read frontier to the committed offset; the client
	// frontier must drop the redelivered three (already handed out).
	if err := r.Commit("logs", 0, 2); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Stop()
	if _, err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConnected(ctx); err != nil {
		t.Fatal(err)
	}
	// Server-side: read frontier rewound to 2 after resume, so a fresh
	// TryPoll from the BUS would re-serve 2..4. Client-side the Reader
	// already delivered those; it must stay silent.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if msgs := r.TryPoll(10); len(msgs) != 0 {
			t.Fatalf("redelivered already-delivered messages: %v", msgs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A new message still flows.
	if _, _, err := c.Publish("logs", "k", []byte("m5"), nil); err != nil {
		t.Fatal(err)
	}
	msgs, err = r.Poll(ctx, 10)
	if err != nil || len(msgs) != 1 || string(msgs[0].Value) != "m5" {
		t.Fatalf("post-restart Poll = %v, %v; want m5", msgs, err)
	}
}

// TestLongPollEndsWithConnection: a long-poll whose connection is gone
// reads nothing, so a message published after the client vanished is
// still there for its reconnected self.
func TestLongPollEndsWithConnection(t *testing.T) {
	srv := NewServer(bus.New())
	if err := srv.Bus().CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	poll := Request{Group: "g", Topics: []string{"logs"}, Max: 10, Manual: true, WaitMs: 5000}
	alive, gone := context.WithCancel(context.Background())
	parked := make(chan Response)
	go func() { parked <- srv.handlePoll(alive, poll) }()
	gone()
	if _, _, err := srv.Bus().Publish("logs", "k", []byte("m"), nil); err != nil {
		t.Fatal(err)
	}
	if resp := <-parked; len(resp.Msgs) != 0 {
		t.Fatalf("long-poll of a closed connection read %d messages", len(resp.Msgs))
	}
	if resp := srv.handlePoll(context.Background(), poll); len(resp.Msgs) != 1 {
		t.Fatalf("reconnected poll got %d messages, want the 1 published", len(resp.Msgs))
	}
}

func TestSeekAllowsIntentionalRedelivery(t *testing.T) {
	_, c := startBroker(t, Options{})
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	r, err := c.Subscribe("g1", "logs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.Publish("logs", "k", []byte{byte('a' + i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if msgs, err := r.Poll(ctx, 10); err != nil || len(msgs) != 3 {
		t.Fatalf("Poll = %d, %v", len(msgs), err)
	}
	if err := r.Seek("logs", 0, 1); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	msgs, err := r.Poll(ctx, 10)
	if err != nil || len(msgs) != 2 || string(msgs[0].Value) != "b" {
		t.Fatalf("post-seek Poll = %v, %v; want b,c", msgs, err)
	}
}

func TestProbeTransitions(t *testing.T) {
	srv, c := startBroker(t, Options{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	if got := c.Probe(); got.Status != obs.Healthy {
		t.Fatalf("connected probe = %+v", got)
	}
	srv.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Probe().Status == obs.Unhealthy {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Probe(); got.Status == obs.Healthy {
		t.Fatalf("probe still healthy with broker down: %+v", got)
	}
	c.Close()
	if got := c.Probe(); got.Status != obs.Unhealthy {
		t.Fatalf("closed probe = %+v", got)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	srv, c := startBroker(t, Options{})
	if err := c.CreateTopic("logs", 4); err != nil {
		t.Fatal(err)
	}
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := c.Publish("logs", fmt.Sprintf("w%d", w), []byte("x"), nil); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for p := 0; p < 4; p++ {
		end, _ := srv.Bus().EndOffset("logs", p)
		total += end
	}
	if total != 8*per {
		t.Fatalf("published %d, want %d", total, 8*per)
	}
}

// TestProtoMismatchConn proves a wrong-protocol peer is dropped at its
// first frame, not mis-parsed.
func TestProtoMismatchConn(t *testing.T) {
	srv := NewServer(bus.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a non-protocol peer; want connection drop")
	}
}
