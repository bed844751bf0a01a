package intake

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/metrics"
	"loglens/internal/obs"
	"loglens/internal/testutil"
)

// collector is the test publish sink: it records every line the pump
// delivers, optionally blocking until released (to back the queue up on
// purpose).
type collector struct {
	mu       sync.Mutex
	byTenant map[string][]string
	total    atomic.Uint64
	block    chan struct{} // non-nil: publish waits until closed
}

func newCollector() *collector {
	return &collector{byTenant: make(map[string][]string)}
}

func (c *collector) publish(tenant string, seq uint64, raw []byte, _ time.Time) {
	if c.block != nil {
		<-c.block
	}
	c.mu.Lock()
	c.byTenant[tenant] = append(c.byTenant[tenant], string(raw))
	c.mu.Unlock()
	c.total.Add(1)
}

func (c *collector) lines(tenant string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.byTenant[tenant]...)
}

// startService builds and starts a Service on ephemeral ports, cleaning
// up at test end.
func startService(t *testing.T, cfg Config, sink *collector) *Service {
	t.Helper()
	s := New(cfg, sink.publish)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialTCP(t *testing.T, s *Service) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServiceTCPEndToEnd: syslog frames over TCP in both framings reach
// the publish callback with the hostname as tenant and per-tenant seqs.
func TestServiceTCPEndToEnd(t *testing.T) {
	sink := newCollector()
	s := startService(t, Config{SyslogTCP: "127.0.0.1:0"}, sink)

	conn := dialTCP(t, s)
	payload := "<13>Feb  5 17:32:18 web01 app: hello line one\n"
	octet := "<13>Feb  5 17:32:18 web01 app: hello line two"
	fmt.Fprintf(conn, "%s%d %s", payload, len(octet), octet)
	conn.Close()

	testutil.WaitUntil(t, 5*time.Second, func() bool { return sink.total.Load() == 2 },
		"published lines did not arrive")
	got := sink.lines("web01")
	if len(got) != 2 || got[0] != "hello line one" || got[1] != "hello line two" {
		t.Fatalf("web01 lines = %q", got)
	}
	st := s.Stats()
	if st.Accepted != 2 || st.Published != 2 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 2 accepted, 2 published, 0 shed", st)
	}
}

// TestServiceMalformedForwardedRaw: an unparseable payload is still
// accepted — forwarded verbatim under the default tenant and counted
// malformed. The front door loses nothing to bad syntax.
func TestServiceMalformedForwardedRaw(t *testing.T) {
	sink := newCollector()
	s := startService(t, Config{
		SyslogTCP: "127.0.0.1:0", DefaultTenant: "dt",
	}, sink)

	conn := dialTCP(t, s)
	fmt.Fprintf(conn, "no pri at all just text\n")
	conn.Close()

	testutil.WaitUntil(t, 5*time.Second, func() bool { return sink.total.Load() == 1 },
		"malformed line not published")
	if got := sink.lines("dt"); len(got) != 1 || got[0] != "no pri at all just text" {
		t.Fatalf("default-tenant lines = %q, want raw payload", got)
	}
	if st := s.Stats(); st.Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1", st.Malformed)
	}
}

// TestServiceFrameErrorClosesOnlyThatConn: a framing violation kills the
// offending connection and counts a frame error; a healthy connection
// opened after it still flows.
func TestServiceFrameErrorClosesOnlyThatConn(t *testing.T) {
	sink := newCollector()
	s := startService(t, Config{
		SyslogTCP: "127.0.0.1:0", MaxLineBytes: 128,
	}, sink)

	bad := dialTCP(t, s)
	fmt.Fprintf(bad, "999999 oversized octet count claim")
	// The violating conn gets closed by the server.
	buf := make([]byte, 1)
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.Read(buf); err == nil {
		t.Fatal("expected server to close the violating connection")
	}

	good := dialTCP(t, s)
	fmt.Fprintf(good, "<13>ok line\n")
	testutil.WaitUntil(t, 5*time.Second, func() bool { return sink.total.Load() == 1 },
		"line on healthy conn not published")
	if st := s.Stats(); st.FrameErrors != 1 {
		t.Fatalf("FrameErrors = %d, want 1", st.FrameErrors)
	}
}

// TestServiceUDPShedsOverRate: UDP has no flow control, so datagrams over
// the tenant rate are shed with reason "rate", accounted in metrics, the
// per-tenant stats, and the flight recorder — and the balance closes.
func TestServiceUDPShedsOverRate(t *testing.T) {
	reg := metrics.NewRegistry()
	fc := clock.NewFake()
	events := obs.NewFlightRecorder(fc, 64)
	sink := newCollector()
	s := startService(t, Config{
		SyslogUDP: "127.0.0.1:0", TenantRate: 5, TenantBurst: 5,
		Clock: fc, Ops: &obs.Ops{Metrics: reg, Events: events},
	}, sink)

	conn, err := net.Dial("udp", s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 20
	for i := 0; i < n; i++ {
		fmt.Fprintf(conn, "<13>Feb  5 17:32:18 web01 app: dgram %d", i)
		// UDP delivery is async; wait until the datagram is accounted
		// before sending the next so none are lost in the kernel.
		want := uint64(i + 1)
		testutil.WaitUntil(t, 5*time.Second, func() bool {
			return s.Stats().Accepted == want
		}, "datagram not accounted")
	}
	st := s.Stats()
	if st.Accepted != n {
		t.Fatalf("accepted %d, want %d", st.Accepted, n)
	}
	// Fake clock never advances: exactly the burst is admitted.
	testutil.WaitUntil(t, 5*time.Second, func() bool { return sink.total.Load() == 5 },
		"burst lines not published")
	if st.Shed != n-5 {
		t.Fatalf("shed %d, want %d", st.Shed, n-5)
	}
	if got := reg.Snapshot().Counter("intake_lines_shed_total", "reason", ShedRate); got != n-5 {
		t.Fatalf("intake_lines_shed_total{reason=rate} = %d, want %d", got, n-5)
	}
	if got := reg.Snapshot().Counter("intake_tenant_shed_total", "reason", ShedRate, "tenant", "web01"); got != n-5 {
		t.Fatalf("intake_tenant_shed_total{rate,web01} = %d, want %d", got, n-5)
	}
	shedEvents := events.Events(obs.EventQuery{Type: obs.EventIntakeShed})
	if len(shedEvents) != n-5 {
		t.Fatalf("flight recorder shed events = %d, want %d", len(shedEvents), n-5)
	}
	if ev := shedEvents[0]; ev.Source != "web01" || ev.Detail != ShedRate {
		t.Fatalf("shed event = %+v, want tenant web01 reason rate", ev)
	}
	// Conservation at the front door: accepted == published + shed.
	if st.Accepted != st.Published+st.Shed {
		t.Fatalf("conservation broken: accepted %d != published %d + shed %d",
			st.Accepted, st.Published, st.Shed)
	}
}

// TestServiceTCPBackpressure: a TCP sender over its rate is not shed —
// the read loop stops taking lines until tokens refill, so admission
// tracks the fake clock exactly and nothing is lost.
func TestServiceTCPBackpressure(t *testing.T) {
	fc := clock.NewFake()
	sink := newCollector()
	s := startService(t, Config{
		SyslogTCP: "127.0.0.1:0", TenantRate: 10, TenantBurst: 10,
		Clock: fc,
	}, sink)

	conn := dialTCP(t, s)
	const n = 50
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "<13>Feb  5 17:32:18 web01 app: line %d\n", i)
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Burst of 10 flows immediately; the handler then parks in the rate
	// wait with the 11th line in hand.
	testutil.WaitUntil(t, 5*time.Second, func() bool { return sink.total.Load() == 10 },
		"burst not published")
	if got := sink.total.Load(); got != 10 {
		t.Fatalf("published %d before clock advance, want exactly the burst 10", got)
	}
	// Each second of fake time releases another 10 lines — no sheds. The
	// rate wait is the only waiter on the fake clock: advancing before
	// the handler has parked in it would let the tick pass unseen.
	for want := uint64(20); want <= n; want += 10 {
		fc.BlockUntil(1)
		fc.Advance(time.Second)
		testutil.WaitUntil(t, 5*time.Second, func() bool { return sink.total.Load() >= want },
			"refill did not release lines")
	}
	st := s.Stats()
	if st.Shed != 0 {
		t.Fatalf("TCP backpressure shed %d lines; must shed none", st.Shed)
	}
	if st.Published != n {
		t.Fatalf("published %d, want %d", st.Published, n)
	}
}

// TestServiceQueueBoundedAndSheds: with the pump's downstream blocked,
// the queue fills to exactly its bound; UDP arrivals beyond it shed with
// reason "queue" and memory does not grow.
func TestServiceQueueBoundedAndSheds(t *testing.T) {
	reg := metrics.NewRegistry()
	sink := newCollector()
	sink.block = make(chan struct{})
	const depth = 8
	s := startService(t, Config{
		SyslogUDP: "127.0.0.1:0", QueueDepth: depth, Ops: &obs.Ops{Metrics: reg},
	}, sink)

	conn, err := net.Dial("udp", s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// depth lines fill the queue, +1 sits blocked inside the pump's
	// publish call; everything past that must shed.
	const n = depth + 10
	for i := 0; i < n; i++ {
		fmt.Fprintf(conn, "<13>line %d", i)
		want := uint64(i + 1)
		testutil.WaitUntil(t, 5*time.Second, func() bool {
			return s.Stats().Accepted == want
		}, "datagram not accounted")
	}
	st := s.Stats()
	if st.QueueDepth > depth {
		t.Fatalf("queue depth %d exceeds bound %d", st.QueueDepth, depth)
	}
	if st.Shed != n-depth-1 {
		t.Fatalf("shed %d, want %d (queue %d + 1 in-flight publish)", st.Shed, n-depth-1, depth)
	}
	if got := reg.Snapshot().Counter("intake_lines_shed_total", "reason", ShedQueue); got != st.Shed {
		t.Fatalf("intake_lines_shed_total{reason=queue} = %d, want %d", got, st.Shed)
	}
	close(sink.block)
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		return sink.total.Load() == depth+1
	}, "queued lines not drained after unblock")
	if st := s.Stats(); st.Accepted != st.Published+st.Shed {
		t.Fatalf("conservation broken: %+v", st)
	}
}

// TestServiceHTTPIngest: the bulk endpoint admits what the rate allows,
// reports the split, and 429s an all-shed batch.
func TestServiceHTTPIngest(t *testing.T) {
	fc := clock.NewFake()
	sink := newCollector()
	s := startService(t, Config{
		HTTP: "127.0.0.1:0", TenantRate: 10, TenantBurst: 10,
		Clock: fc,
	}, sink)

	post := func(body string) (int, IngestResponse) {
		t.Helper()
		resp, err := http.Post("http://"+s.HTTPAddr()+"/api/ingest", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ir IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, ir
	}

	code, ir := post(`{"tenant":"api1","lines":["l1","l2","l3"]}`)
	if code != http.StatusOK || ir.Accepted != 3 || ir.Shed != 0 {
		t.Fatalf("first batch: code %d resp %+v", code, ir)
	}
	// 7 tokens left: a 12-line batch splits 7 admitted / 5 shed.
	code, ir = post(`{"tenant":"api1","lines":["a","b","c","d","e","f","g","h","i","j","k","l"]}`)
	if code != http.StatusOK || ir.Accepted != 7 || ir.ShedRate != 5 {
		t.Fatalf("partial batch: code %d resp %+v", code, ir)
	}
	// Bucket empty: all-shed is 429.
	code, ir = post(`{"tenant":"api1","lines":["x"]}`)
	if code != http.StatusTooManyRequests || ir.Accepted != 0 || ir.ShedRate != 1 {
		t.Fatalf("over-rate batch: code %d resp %+v", code, ir)
	}
	// Other tenants are untouched by api1's exhaustion.
	code, ir = post(`{"tenant":"api2","lines":["y"]}`)
	if code != http.StatusOK || ir.Accepted != 1 {
		t.Fatalf("other tenant: code %d resp %+v", code, ir)
	}
	if code, _ := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("bad JSON: code %d, want 400", code)
	}
	if code, _ := post(`{"lines":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: code %d, want 400", code)
	}
	testutil.WaitUntil(t, 5*time.Second, func() bool { return sink.total.Load() == 11 },
		"admitted lines not published")
	if got := sink.lines("api1"); len(got) != 10 {
		t.Fatalf("api1 published %d lines, want 10", len(got))
	}
}

// TestServiceStalledReaderIsolation: a peer that sends half a frame and
// goes silent parks one goroutine; the accept loop and every other
// connection keep full service.
func TestServiceStalledReaderIsolation(t *testing.T) {
	sink := newCollector()
	s := startService(t, Config{SyslogTCP: "127.0.0.1:0"}, sink)

	stalled := dialTCP(t, s)
	// Half an octet-counted frame: the server read loop now waits for
	// bytes that never come.
	fmt.Fprintf(stalled, "100 only the start of the payload")

	// Ten healthy connections must be completely unaffected.
	for i := 0; i < 10; i++ {
		c := dialTCP(t, s)
		fmt.Fprintf(c, "<13>healthy line %d\n", i)
		c.Close()
	}
	testutil.WaitUntil(t, 5*time.Second, func() bool { return sink.total.Load() == 10 },
		"healthy conns starved by a stalled peer")
}

// TestServiceConnCap: connections beyond MaxConns are refused and
// counted; the service stays bounded instead of accepting unboundedly.
func TestServiceConnCap(t *testing.T) {
	sink := newCollector()
	s := startService(t, Config{
		SyslogTCP: "127.0.0.1:0", MaxConns: 4,
	}, sink)

	var held []net.Conn
	for i := 0; i < 4; i++ {
		c := dialTCP(t, s)
		// Park each conn with a partial frame so it stays open.
		fmt.Fprintf(c, "50 partial")
		held = append(held, c)
	}
	testutil.WaitUntil(t, 5*time.Second, func() bool { return s.Stats().ActiveConns == 4 },
		"held conns not active")
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		c, err := net.Dial("tcp", s.TCPAddr())
		if err != nil {
			return true
		}
		defer c.Close()
		// Rejection may lag the dial by one accept-loop pass; a served
		// conn would block in read, a rejected one closes promptly.
		c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, err = c.Read(make([]byte, 1))
		return err != nil && s.Stats().ConnsRejected > 0
	}, "connection beyond the cap was not refused")
	for _, c := range held {
		c.Close()
	}
}

// TestServiceGracefulShutdownDrains: Shutdown stops the listeners, lets
// in-flight connections finish their buffered frames, drains the queue,
// and leaves the balance closed with nothing shed.
func TestServiceGracefulShutdownDrains(t *testing.T) {
	sink := newCollector()
	s := startService(t, Config{SyslogTCP: "127.0.0.1:0"}, sink)

	conn := dialTCP(t, s)
	const n = 100
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "<13>line %d\n", i)
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Wait until the lines are at least accepted so the shutdown has
	// something in flight to drain.
	testutil.WaitUntil(t, 5*time.Second, func() bool { return s.Stats().Accepted == n },
		"lines not accepted before shutdown")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Published != n || st.Shed != 0 {
		t.Fatalf("after drain: published %d shed %d, want %d/0", st.Published, st.Shed, n)
	}
	if sink.total.Load() != n {
		t.Fatalf("sink saw %d lines, want %d", sink.total.Load(), n)
	}
	// The listener is gone.
	if _, err := net.DialTimeout("tcp", s.TCPAddr(), time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestServiceCloseShedsBlockedAdmissions: Close (the crash path) aborts a
// handler parked in the rate wait; the parked line is accounted as shed
// with reason "shutdown", so even an abort closes the balance.
func TestServiceCloseShedsBlockedAdmissions(t *testing.T) {
	fc := clock.NewFake()
	reg := metrics.NewRegistry()
	sink := newCollector()
	s := startService(t, Config{
		SyslogTCP: "127.0.0.1:0", TenantRate: 1, TenantBurst: 1,
		Clock: fc, Ops: &obs.Ops{Metrics: reg},
	}, sink)

	conn := dialTCP(t, s)
	fmt.Fprintf(conn, "<13>first\n<13>second\n")
	// First line consumes the burst; the second parks in the rate wait.
	testutil.WaitUntil(t, 5*time.Second, func() bool { return s.Stats().Accepted == 2 },
		"second line not accepted")
	if err := s.Close(); err == nil {
		t.Fatal("Close with a parked admission should report shed lines")
	}
	st := s.Stats()
	if st.Accepted != st.Published+st.Shed {
		t.Fatalf("conservation broken across abort: %+v", st)
	}
	if got := reg.Snapshot().Counter("intake_lines_shed_total", "reason", ShedShutdown); got != st.Shed || st.Shed == 0 {
		t.Fatalf("shutdown sheds: counter %d, stats %d, want equal and nonzero", got, st.Shed)
	}
}

// TestServiceThousandConnections is the acceptance-criteria load shape:
// ≥1000 concurrent TCP connections streaming into a small bounded queue.
// The queue must never exceed its bound and the balance must close —
// bounded memory regardless of connection count.
func TestServiceThousandConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-connection load test skipped in -short")
	}
	const (
		conns        = 1000
		linesPerConn = 5
		depth        = 64
	)
	reg := metrics.NewRegistry()
	sink := newCollector()
	s := startService(t, Config{
		SyslogTCP: "127.0.0.1:0", QueueDepth: depth, MaxConns: conns + 10,
		Ops: &obs.Ops{Metrics: reg},
	}, sink)

	var wg sync.WaitGroup
	var dialErrs atomic.Uint64
	start := make(chan struct{})
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-start
			c, err := net.Dial("tcp", s.TCPAddr())
			if err != nil {
				dialErrs.Add(1)
				return
			}
			defer c.Close()
			var buf bytes.Buffer
			for j := 0; j < linesPerConn; j++ {
				fmt.Fprintf(&buf, "<13>Feb  5 17:32:18 host%03d app: line %d\n", id%50, j)
			}
			if _, err := c.Write(buf.Bytes()); err != nil {
				dialErrs.Add(1)
			}
		}(i)
	}
	close(start)

	// While the flood runs, the queue must stay within its bound.
	probeDone := make(chan struct{})
	var maxDepth atomic.Int64
	go func() {
		defer close(probeDone)
		for {
			select {
			case <-probeDone:
				return
			default:
			}
			if d := int64(s.Stats().QueueDepth); d > maxDepth.Load() {
				maxDepth.Store(d)
			}
			if sink.total.Load() >= conns*linesPerConn {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if n := dialErrs.Load(); n > 0 {
		t.Fatalf("%d connections failed to dial/write", n)
	}
	want := uint64(conns * linesPerConn)
	testutil.WaitUntil(t, 60*time.Second, func() bool { return sink.total.Load() == want },
		"flood lines not all published")
	<-probeDone
	if d := maxDepth.Load(); d > depth {
		t.Fatalf("queue depth reached %d, bound is %d", d, depth)
	}
	st := s.Stats()
	if st.Accepted != want || st.Shed != 0 {
		t.Fatalf("accepted %d shed %d, want %d/0 (TCP backpressure, no rate limit)",
			st.Accepted, st.Shed, want)
	}
	if st.Accepted != st.Published+st.Shed {
		t.Fatalf("conservation broken: %+v", st)
	}
}

// FuzzIngestJSON: arbitrary request bodies against the ingest handler
// must never panic the listener, and any 200 response must keep the
// accepted+shed split consistent with the request.
func FuzzIngestJSON(f *testing.F) {
	f.Add([]byte(`{"tenant":"t","lines":["a","b"]}`))
	f.Add([]byte(`{"lines":["only"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"tenant":123,"lines":"wrong types"}`))
	f.Add([]byte(`{"tenant":"` + "\x00\xff" + `","lines":[""]}`))
	f.Add([]byte(`[1,2,3]`))

	sink := newCollector()
	s := New(Config{HTTP: "127.0.0.1:0"}, sink.publish)
	if err := s.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	client := &http.Client{Timeout: 10 * time.Second}
	url := "http://" + s.HTTPAddr() + "/api/ingest"

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("listener died: %v", err)
		}
		defer resp.Body.Close()
		var ir IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatalf("non-JSON response (%d): %v", resp.StatusCode, err)
		}
		if resp.StatusCode == http.StatusOK && ir.Accepted == 0 {
			t.Fatalf("200 with zero accepted: %+v", ir)
		}
		if ir.Shed != ir.ShedRate+ir.ShedQueue {
			t.Fatalf("shed split inconsistent: %+v", ir)
		}
	})
}
