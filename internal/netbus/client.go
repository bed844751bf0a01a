package netbus

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// Client errors.
var (
	// ErrNotConnected reports a request attempted while the broker link
	// is down; the reconnect loop is working on it.
	ErrNotConnected = errors.New("netbus: not connected to broker")
	// ErrTimeout reports a request that got no response within the
	// per-request deadline.
	ErrTimeout = errors.New("netbus: request timed out")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("netbus: client closed")
)

// Options tunes a Client. The zero value is usable.
type Options struct {
	// Clock drives backoff sleeps, request deadlines, and the request
	// histogram (default the wall clock; tests inject clock.Fake to
	// assert the exact backoff schedule).
	Clock clock.Clock
	// Dialer opens the broker connection (default net.Dial over TCP);
	// tests inject failures and in-memory pipes here.
	Dialer func(addr string) (net.Conn, error)
	// Role labels netbus_reconnect_total — "worker" for pipeline-side
	// clients, "agent" for publishers (default "worker").
	Role string
	// RequestTimeout bounds one RPC round trip (default 5s).
	RequestTimeout time.Duration
	// BackoffBase/BackoffMax bound the reconnect backoff (defaults 50ms
	// and 5s); Seed drives its deterministic jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Seed        int64
	// PollWait is the long-poll window a blocking Poll asks the broker
	// to hold (default 250ms).
	PollWait time.Duration
}

func (o *Options) setDefaults() {
	if o.Clock == nil {
		o.Clock = clock.New()
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.Role == "" {
		o.Role = "worker"
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.PollWait <= 0 {
		o.PollWait = 250 * time.Millisecond
	}
}

// callResult is one RPC completion.
type callResult struct {
	resp Response
	err  error
}

// Client is a resilient broker connection implementing bus.Broker. One
// TCP connection multiplexes every request by id; a background manager
// goroutine keeps it alive, reconnecting with exponential backoff and
// seeded jitter whenever it drops, and replaying each subscribed group's
// resume handshake so in-flight batches that died with the old
// connection are redelivered (at-least-once; the Reader's offset
// frontier drops the duplicates).
type Client struct {
	addr string
	opt  Options
	clk  clock.Clock

	wmu sync.Mutex // serializes frame writes to the current conn

	mu        sync.Mutex
	conn      net.Conn
	connected bool
	closed    bool
	nextID    uint64
	waiters   map[uint64]chan callResult
	readers   map[string]*Reader
	connCh    chan struct{} // closed when a connection is (re)established
	attempts  uint64        // consecutive failed dials since last connect
	sessions  uint64        // established connections (1 = first connect)

	events *obs.FlightRecorder

	instrMu    sync.Mutex
	reg        *metrics.Registry
	reconnects *metrics.Counter
	reqHist    map[byte]*metrics.Histogram

	done chan struct{} // closed by Close; stops the manager loop
}

// Dial starts a client for the broker at addr. It returns immediately;
// the connection is established (and re-established) in the background.
// Use WaitConnected to block until the link is up.
func Dial(addr string, opt Options) *Client {
	opt.setDefaults()
	c := &Client{
		addr:    addr,
		opt:     opt,
		clk:     opt.Clock,
		waiters: make(map[uint64]chan callResult),
		readers: make(map[string]*Reader),
		connCh:  make(chan struct{}),
		reqHist: make(map[byte]*metrics.Histogram),
		done:    make(chan struct{}),
	}
	go c.run()
	return c
}

// SetMetrics installs the observability registry
// (netbus_reconnect_total{role}, netbus_request_seconds{op}).
func (c *Client) SetMetrics(reg *metrics.Registry) {
	c.instrMu.Lock()
	defer c.instrMu.Unlock()
	c.reg = reg
	c.reconnects = reg.Counter("netbus_reconnect_total", "role", c.opt.Role)
}

// SetRecorder installs a flight recorder capturing connect/disconnect
// transitions; nil disables.
func (c *Client) SetRecorder(f *obs.FlightRecorder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = f
}

func (c *Client) recorder() *obs.FlightRecorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

func (c *Client) histFor(op byte) *metrics.Histogram {
	c.instrMu.Lock()
	defer c.instrMu.Unlock()
	if c.reg == nil {
		return nil
	}
	h, ok := c.reqHist[op]
	if !ok {
		h = c.reg.Histogram("netbus_request_seconds", nil, "op", opNames[op])
		c.reqHist[op] = h
	}
	return h
}

// Close tears the client down: the connection drops, in-flight requests
// fail, the manager loop exits.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	close(c.done)
	if conn != nil {
		conn.Close()
	}
}

// Connected reports whether the broker link is currently up.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connected
}

// WaitConnected blocks until the link is up or ctx is done.
func (c *Client) WaitConnected(ctx context.Context) error {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		if c.connected {
			c.mu.Unlock()
			return nil
		}
		ch := c.connCh
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Probe reports broker connectivity for the /healthz netbus probe.
func (c *Client) Probe() obs.ProbeResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return obs.ProbeResult{Status: obs.Unhealthy, Detail: "client closed"}
	case c.connected:
		return obs.ProbeResult{Status: obs.Healthy, Detail: "connected to " + c.addr}
	case c.attempts >= 5:
		return obs.ProbeResult{Status: obs.Unhealthy,
			Detail: fmt.Sprintf("broker %s unreachable (%d failed attempts)", c.addr, c.attempts)}
	}
	return obs.ProbeResult{Status: obs.Degraded,
		Detail: fmt.Sprintf("reconnecting to %s (attempt %d)", c.addr, c.attempts+1)}
}

// run is the connection manager: dial with backoff, serve until the
// connection dies, repeat.
func (c *Client) run() {
	for attempt := uint64(0); ; attempt++ {
		select {
		case <-c.done:
			return
		default:
		}
		conn, err := c.opt.Dialer(c.addr)
		if err != nil {
			c.mu.Lock()
			c.attempts++
			c.mu.Unlock()
			c.clk.Sleep(c.backoff(attempt))
			continue
		}
		attempt = 0
		if !c.install(conn) {
			conn.Close()
			return
		}
		c.readLoop(conn)
		c.teardown(conn)
		select {
		case <-c.done:
			return
		default:
		}
	}
}

// backoff computes the reconnect delay for one failed attempt:
// exponential from BackoffBase to BackoffMax, plus deterministic
// seeded jitter in [0, delay/2] (the supervisor's splitmix64 scheme —
// decorrelated without a shared rand stream).
func (c *Client) backoff(attempt uint64) time.Duration {
	d := c.opt.BackoffBase
	for i := uint64(0); i < attempt && d < c.opt.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opt.BackoffMax {
		d = c.opt.BackoffMax
	}
	jitter := time.Duration(splitmix64(uint64(c.opt.Seed)^attempt) % uint64(d/2+1))
	return d + jitter
}

// splitmix64 is the SplitMix64 finalizer (the same mixer the recovery
// supervisor and the chaos harness use).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// install publishes a fresh connection: waiting requests unblock, and
// every subscribed group is resumed from its committed offsets (the
// at-least-once redelivery handshake). Returns false when the client
// closed while dialing.
func (c *Client) install(conn net.Conn) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.conn = conn
	c.connected = true
	c.attempts = 0
	c.sessions++
	reconnect := c.sessions > 1
	close(c.connCh)
	groups := make([]string, 0, len(c.readers))
	for g := range c.readers {
		groups = append(groups, g)
	}
	c.mu.Unlock()
	if reconnect {
		c.instrMu.Lock()
		rc := c.reconnects
		c.instrMu.Unlock()
		if rc != nil {
			rc.Inc()
		}
		c.recorder().Record(obs.EventNetbusReconnect, c.opt.Role,
			"broker link re-established to "+c.addr, int64(len(groups)))
		// Resume every subscribed group: the broker rewinds its read
		// frontier to the committed offsets, so batches in flight on the
		// dead connection come back. The Reader frontier drops what was
		// already delivered. Off the manager goroutine — responses only
		// flow once readLoop runs, which starts after install returns. A
		// poll racing ahead of the resume is harmless: it reads from the
		// pre-rewind frontier and the dedup logic stays consistent.
		go func() {
			for _, g := range groups {
				c.call(OpResume, Request{Group: g})
			}
		}()
	}
	return true
}

// teardown retires a dead connection: in-flight requests fail with
// ErrNotConnected and the connect signal is re-armed.
func (c *Client) teardown(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
		c.connected = false
		c.connCh = make(chan struct{})
	}
	waiters := c.waiters
	c.waiters = make(map[uint64]chan callResult)
	c.mu.Unlock()
	for _, ch := range waiters {
		ch <- callResult{err: ErrNotConnected}
	}
	c.recorder().Record(obs.EventNetbusReconnect, c.opt.Role,
		"broker link lost to "+c.addr, 0)
}

// readLoop dispatches responses to their waiters until the connection
// dies.
func (c *Client) readLoop(conn net.Conn) {
	fr := frameReader{r: bufio.NewReaderSize(conn, 64<<10)}
	strs := newStrTable()
	for {
		// A fresh payload per frame: decoded message values alias it.
		_, id, payload, err := fr.next(nil)
		if err != nil {
			return
		}
		var res callResult
		res.err = decodeResponse(payload, &res.resp, strs)
		c.mu.Lock()
		ch, ok := c.waiters[id]
		if ok {
			delete(c.waiters, id)
		}
		c.mu.Unlock()
		if ok {
			ch <- res
		}
	}
}

// call performs one RPC round trip under the per-request deadline.
func (c *Client) call(op byte, req Request) (Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrClosed
	}
	if !c.connected {
		c.mu.Unlock()
		return Response{}, ErrNotConnected
	}
	c.nextID++
	id := c.nextID
	ch := make(chan callResult, 1)
	c.waiters[id] = ch
	conn := c.conn
	c.mu.Unlock()

	drop := func() {
		c.mu.Lock()
		delete(c.waiters, id)
		c.mu.Unlock()
	}
	bp := getFrameBuf()
	frame, err := AppendRequestFrame(*bp, op, id, &req)
	if err != nil {
		putFrameBuf(bp, frame)
		drop()
		return Response{}, err
	}
	start := c.clk.Now()
	c.wmu.Lock()
	conn.SetWriteDeadline(time.Now().Add(c.opt.RequestTimeout))
	_, werr := conn.Write(frame)
	c.wmu.Unlock()
	putFrameBuf(bp, frame)
	if werr != nil {
		drop()
		conn.Close() // wake the read loop into reconnect
		return Response{}, ErrNotConnected
	}
	select {
	case res := <-ch:
		if h := c.histFor(op); h != nil {
			h.Observe(c.clk.Since(start).Seconds())
		}
		if res.err != nil {
			return Response{}, res.err
		}
		if res.resp.Err != "" {
			return Response{}, errors.New(res.resp.Err)
		}
		return res.resp, nil
	case <-c.clk.After(c.opt.RequestTimeout):
		drop()
		return Response{}, ErrTimeout
	case <-c.done:
		drop()
		return Response{}, ErrClosed
	}
}

// --- bus.Broker implementation ---

// CreateTopic declares a topic on the broker.
func (c *Client) CreateTopic(name string, partitions int) error {
	_, err := c.call(OpCreateTopic, Request{Topic: name, Partitions: partitions})
	return err
}

// Partitions returns a topic's partition count.
func (c *Client) Partitions(topic string) (int, error) {
	resp, err := c.call(OpPartitions, Request{Topic: topic})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Publish appends a message (key-hash partitioning broker-side).
func (c *Client) Publish(topic, key string, value []byte, headers map[string]string) (int, int64, error) {
	resp, err := c.call(OpPublish, Request{Topic: topic, Key: key, Value: value, Headers: headers})
	if err != nil {
		return 0, 0, err
	}
	return resp.Partition, resp.Offset, nil
}

// PublishTo appends to an explicit partition.
func (c *Client) PublishTo(topic string, partition int, key string, value []byte, headers map[string]string) (int64, error) {
	resp, err := c.call(OpPublishTo, Request{Topic: topic, Partition: partition, Key: key, Value: value, Headers: headers})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// Broadcast appends a copy to every partition.
func (c *Client) Broadcast(topic, key string, value []byte, headers map[string]string) error {
	_, err := c.call(OpBroadcast, Request{Topic: topic, Key: key, Value: value, Headers: headers})
	return err
}

// EndOffset returns the next offset of a partition.
func (c *Client) EndOffset(topic string, partition int) (int64, error) {
	resp, err := c.call(OpEndOffset, Request{Topic: topic, Partition: partition})
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// GroupOffsets returns a group's committed offsets.
func (c *Client) GroupOffsets(group string) map[string]int64 {
	resp, err := c.call(OpGroupOffsets, Request{Group: group})
	if err != nil || resp.Offsets == nil {
		return map[string]int64{}
	}
	return resp.Offsets
}

// SeekGroup positions one partition of a group (restore path).
func (c *Client) SeekGroup(group, topic string, partition int, offset int64) {
	c.call(OpSeekGroup, Request{Group: group, Topic: topic, Partition: partition, Offset: offset})
	c.mu.Lock()
	r := c.readers[group]
	c.mu.Unlock()
	if r != nil {
		r.resetFrontier(topic, partition, offset)
	}
}

// ReadFrom peeks one partition without touching group state.
func (c *Client) ReadFrom(topic string, partition int, offset int64, max int) ([]bus.Message, error) {
	resp, err := c.call(OpReadFrom, Request{Topic: topic, Partition: partition, Offset: offset, Max: max})
	if err != nil {
		return nil, err
	}
	return resp.Msgs, nil
}

// Subscribe creates a reader in the named group. Topics are validated
// against the broker so unknown-topic errors surface here, as they do on
// the in-process bus.
func (c *Client) Subscribe(group string, topics ...string) (bus.Reader, error) {
	if len(topics) == 0 {
		return nil, fmt.Errorf("netbus: consumer group %q: no topics", group)
	}
	for _, t := range topics {
		if _, err := c.Partitions(t); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.readers[group]; ok {
		return r, nil
	}
	r := &Reader{
		c:        c,
		group:    group,
		topics:   topics,
		frontier: make(map[partKey]int64),
	}
	c.readers[group] = r
	return r, nil
}

var _ bus.Broker = (*Client)(nil)
