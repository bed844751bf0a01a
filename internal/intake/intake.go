package intake

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/clock"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// DefaultQueueDepth bounds the intake queue when Config.QueueDepth is
// zero: enough to ride out a micro-batch stall without letting a flood
// grow the heap.
const DefaultQueueDepth = 8192

// DefaultTenant is the tenant lines fall under when the wire format
// carries no hostname/tenant and Config.DefaultTenant is unset.
const DefaultTenant = "default"

// Shed reasons: every line the admission layer refuses is accounted under
// exactly one of these in intake_lines_shed_total and the flight
// recorder.
const (
	ShedRate     = "rate"     // tenant over its token-bucket rate limit
	ShedQueue    = "queue"    // bounded intake queue full
	ShedShutdown = "shutdown" // admission aborted by shutdown
)

// Config tunes the intake service. The zero value disables every
// listener.
type Config struct {
	// SyslogUDP, SyslogTCP, and HTTP are the listen addresses
	// (host:port; empty disables that listener). HTTP serves POST
	// /api/ingest.
	SyslogUDP string
	SyslogTCP string
	HTTP      string

	// TenantRate is the steady-state admission rate per tenant in
	// lines/sec (0 = unlimited); TenantBurst is the token-bucket size
	// (default one second's worth). TCP senders over their rate are
	// slowed by backpressure (reads stop, TCP flow control pushes back);
	// UDP datagrams and HTTP lines over it are shed.
	TenantRate  int
	TenantBurst int

	// QueueDepth bounds the intake queue between the listeners and the
	// bus (default DefaultQueueDepth). When full, TCP reads block
	// (backpressure) and UDP/HTTP lines are shed with reason "queue".
	QueueDepth int

	// MaxLineBytes caps one wire frame / HTTP line (default
	// DefaultMaxLineBytes).
	MaxLineBytes int

	// MaxConns caps concurrent TCP connections (default 4096); beyond
	// it new connections are closed immediately and counted.
	MaxConns int

	// IdleTimeout reaps TCP connections that send nothing for this long
	// (0 = never): a stalled peer holds a goroutine, not a partition.
	IdleTimeout time.Duration

	// DefaultTenant receives lines whose wire format names no tenant
	// (default DefaultTenant).
	DefaultTenant string

	// Clock drives rate-limit refill and idle accounting (default the
	// wall clock; tests inject clock.Fake).
	Clock clock.Clock
	// Ops receives the intake_* instruments in its registry and a
	// flight-recorder event for every shed line and rejected connection
	// (nil = a private registry and no events).
	Ops *obs.Ops
}

// Enabled reports whether any listener is configured.
func (c Config) Enabled() bool {
	return c.SyslogUDP != "" || c.SyslogTCP != "" || c.HTTP != ""
}

// PublishFunc receives admitted lines from the pump, in admission order,
// from a single goroutine. seq increases per tenant from 1. The raw slice
// is owned by the callee. admitted is the injected-clock stamp taken at
// queue admission — the anchor for the intake stage of the latency
// plane (queue wait + pump scheduling). It is stamped on a 1-in-16
// per-tenant sample and is the zero time otherwise: a clock read per
// line would dominate the admission hot path.
type PublishFunc func(tenant string, seq uint64, raw []byte, admitted time.Time)

// item is one admitted line waiting in the intake queue.
type item struct {
	tenant   string
	raw      []byte
	admitted time.Time
}

// tenantStats is the per-tenant accounting behind GET /api/intake.
type tenantStats struct {
	accepted     atomic.Uint64
	published    atomic.Uint64
	shedRate     atomic.Uint64
	shedQueue    atomic.Uint64
	shedShutdown atomic.Uint64
	// shedCtr mirrors the shed counts into tenant-labeled registry
	// counters (intake_tenant_shed_total{reason,tenant}) so dashboards
	// can break shedding down per tenant without the Stats endpoint.
	// A distinct metric name keeps sums over intake_lines_shed_total
	// from double-counting. Indexed like shedByReason.
	shedCtr [3]*metrics.Counter
	// tick drives the 1-in-16 sampling of the admission stamp feeding
	// the intake stage histogram: a clock read per admitted line would
	// be the single biggest cost on the intake hot path, and the stage
	// is distribution telemetry, not per-line accounting. Atomic:
	// connections enqueue concurrently.
	tick atomic.Uint64
}

// TenantSnapshot is one tenant's intake accounting.
type TenantSnapshot struct {
	Tenant    string `json:"tenant"`
	Accepted  uint64 `json:"accepted"`
	Published uint64 `json:"published"`
	Shed      uint64 `json:"shed"`
	ShedRate  uint64 `json:"shedRate"`
	ShedQueue uint64 `json:"shedQueue"`
}

// Stats is a consistent-enough snapshot of the intake service for the
// dashboard: totals, queue occupancy, connection counts, and the
// per-tenant breakdown sorted by tenant.
type Stats struct {
	Accepted      uint64           `json:"accepted"`
	Published     uint64           `json:"published"`
	Shed          uint64           `json:"shed"`
	Malformed     uint64           `json:"malformed"`
	FrameErrors   uint64           `json:"frameErrors"`
	QueueDepth    int              `json:"queueDepth"`
	QueueCapacity int              `json:"queueCapacity"`
	ActiveConns   int64            `json:"activeConns"`
	ConnsRejected uint64           `json:"connsRejected"`
	TenantRate    int              `json:"tenantRate"`
	Tenants       []TenantSnapshot `json:"tenants"`
}

// Service is the running front door: listeners, admission, and the pump
// feeding PublishFunc.
type Service struct {
	cfg     Config
	clk     clock.Clock
	publish PublishFunc
	limiter *Limiter
	events  *obs.FlightRecorder

	queue chan item
	// closing is closed when Shutdown begins: listeners stop, blocked
	// admissions keep draining. done is closed when the drain grace
	// expires (or Close aborts): blocked admissions shed and give up.
	closing chan struct{}
	done    chan struct{}

	// producers tracks every goroutine (and HTTP handler) that may send
	// on queue; the queue closes only after they all exit.
	prodMu    sync.Mutex
	draining  bool
	producers sync.WaitGroup

	pumpExited chan struct{}

	udpConn  net.PacketConn
	tcpLn    net.Listener
	httpLn   net.Listener
	httpSrv  *httpServer
	conns    map[net.Conn]struct{}
	connsMu  sync.Mutex
	active   atomic.Int64
	started  atomic.Bool
	stopped  atomic.Bool
	udpDead  atomic.Bool
	tcpDead  atomic.Bool
	httpDead atomic.Bool

	tenantsMu sync.Mutex
	tenants   map[string]*tenantStats

	shutdownOnce sync.Once
	shutdownErr  error

	// Registry handles (never nil: a nil registry hands out no-op
	// instruments).
	acceptedTotal  *metrics.Counter
	publishedTotal *metrics.Counter
	malformedTotal *metrics.Counter
	frameErrTotal  *metrics.Counter
	connsTotal     *metrics.Counter
	connsRejected  *metrics.Counter
	bytesTotal     *metrics.Counter
	queueDepth     *metrics.Gauge
	queueCap       *metrics.Gauge
	connsActive    *metrics.Gauge
	shedByReason   [3]*metrics.Counter // rate, queue, shutdown
	// reg hands out the per-tenant shed counters as tenants appear.
	reg *metrics.Registry
}

// New constructs a Service; Start binds the listeners.
func New(cfg Config, publish PublishFunc) *Service {
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = DefaultMaxLineBytes
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 4096
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = DefaultTenant
	}
	if cfg.Ops == nil {
		cfg.Ops = &obs.Ops{}
	}
	reg := cfg.Ops.Metrics
	if reg == nil {
		// A nil registry would alias every handle to the shared no-op
		// counter, cross-contaminating Stats. A private registry keeps the
		// snapshot honest even when nothing scrapes it.
		reg = metrics.NewRegistry()
	}
	s := &Service{
		cfg:        cfg,
		clk:        cfg.Clock,
		publish:    publish,
		limiter:    NewLimiter(cfg.Clock, cfg.TenantRate, cfg.TenantBurst),
		events:     cfg.Ops.Events,
		queue:      make(chan item, cfg.QueueDepth),
		closing:    make(chan struct{}),
		done:       make(chan struct{}),
		pumpExited: make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
		tenants:    make(map[string]*tenantStats),

		acceptedTotal:  reg.Counter("intake_lines_accepted_total"),
		publishedTotal: reg.Counter("intake_lines_published_total"),
		malformedTotal: reg.Counter("intake_lines_malformed_total"),
		frameErrTotal:  reg.Counter("intake_frame_errors_total"),
		connsTotal:     reg.Counter("intake_conns_total"),
		connsRejected:  reg.Counter("intake_conns_rejected_total"),
		bytesTotal:     reg.Counter("intake_bytes_total"),
		queueDepth:     reg.Gauge("intake_queue_depth"),
		queueCap:       reg.Gauge("intake_queue_capacity"),
		connsActive:    reg.Gauge("intake_conns_active"),
		reg:            reg,
	}
	s.shedByReason[0] = reg.Counter("intake_lines_shed_total", "reason", ShedRate)
	s.shedByReason[1] = reg.Counter("intake_lines_shed_total", "reason", ShedQueue)
	s.shedByReason[2] = reg.Counter("intake_lines_shed_total", "reason", ShedShutdown)
	s.queueCap.Set(int64(cfg.QueueDepth))
	return s
}

// Start binds every configured listener and launches the accept loops and
// the pump. It returns the first bind error, closing anything already
// bound.
func (s *Service) Start() error {
	if s.started.Swap(true) {
		return fmt.Errorf("intake: already started")
	}
	if s.cfg.SyslogUDP != "" {
		pc, err := net.ListenPacket("udp", s.cfg.SyslogUDP)
		if err != nil {
			return fmt.Errorf("intake: udp listen: %w", err)
		}
		s.udpConn = pc
	}
	if s.cfg.SyslogTCP != "" {
		ln, err := net.Listen("tcp", s.cfg.SyslogTCP)
		if err != nil {
			s.closeListeners()
			return fmt.Errorf("intake: tcp listen: %w", err)
		}
		s.tcpLn = ln
	}
	if s.cfg.HTTP != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTP)
		if err != nil {
			s.closeListeners()
			return fmt.Errorf("intake: http listen: %w", err)
		}
		s.httpLn = ln
		s.httpSrv = newHTTPServer(s)
	}
	go s.pump()
	if s.udpConn != nil {
		s.producers.Add(1)
		go s.runUDP()
	}
	if s.tcpLn != nil {
		s.producers.Add(1)
		go s.runTCP()
	}
	if s.httpSrv != nil {
		go s.httpSrv.serve(s.httpLn)
	}
	return nil
}

// UDPAddr, TCPAddr, and HTTPAddr return the bound listener addresses
// (empty when that listener is off) — tests bind ":0" and read these.
func (s *Service) UDPAddr() string {
	if s.udpConn == nil {
		return ""
	}
	return s.udpConn.LocalAddr().String()
}

func (s *Service) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

func (s *Service) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

func (s *Service) closeListeners() {
	if s.udpConn != nil {
		s.udpConn.Close()
	}
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.httpLn != nil {
		s.httpLn.Close()
	}
}

// tenant returns (creating if needed) the stats cell for a tenant.
func (s *Service) tenant(name string) *tenantStats {
	s.tenantsMu.Lock()
	ts := s.tenants[name]
	if ts == nil {
		ts = &tenantStats{}
		ts.shedCtr[0] = s.reg.Counter("intake_tenant_shed_total", "reason", ShedRate, "tenant", name)
		ts.shedCtr[1] = s.reg.Counter("intake_tenant_shed_total", "reason", ShedQueue, "tenant", name)
		ts.shedCtr[2] = s.reg.Counter("intake_tenant_shed_total", "reason", ShedShutdown, "tenant", name)
		s.tenants[name] = ts
	}
	s.tenantsMu.Unlock()
	return ts
}

// accept accounts one line that arrived intact from the wire. Every
// accepted line ends up either published or shed — the conservation
// anchor.
func (s *Service) accept(ts *tenantStats, n int) {
	ts.accepted.Add(uint64(n))
	s.acceptedTotal.Add(uint64(n))
}

// shed accounts one refused line under reason and writes it to the
// flight recorder.
func (s *Service) shed(tenant string, ts *tenantStats, reason string, n int) {
	un := uint64(n)
	switch reason {
	case ShedRate:
		ts.shedRate.Add(un)
		ts.shedCtr[0].Add(un)
		s.shedByReason[0].Add(un)
	case ShedQueue:
		ts.shedQueue.Add(un)
		ts.shedCtr[1].Add(un)
		s.shedByReason[1].Add(un)
	default:
		ts.shedShutdown.Add(un)
		ts.shedCtr[2].Add(un)
		s.shedByReason[2].Add(un)
	}
	s.events.Record(obs.EventIntakeShed, tenant, reason, int64(n))
}

// enqueue places an admitted line on the intake queue, blocking when
// block is set (TCP backpressure) and shedding otherwise. The raw bytes
// are copied: the caller's buffer is reused by the framing layer.
func (s *Service) enqueue(tenant string, ts *tenantStats, raw []byte, block bool) bool {
	it := item{tenant: tenant, raw: append([]byte(nil), raw...)}
	if ts.tick.Add(1)&15 == 1 {
		it.admitted = s.clk.Now()
	}
	if block {
		select {
		case s.queue <- it:
		case <-s.done:
			s.shed(tenant, ts, ShedShutdown, 1)
			return false
		}
		s.queueDepth.Set(int64(len(s.queue)))
		return true
	}
	select {
	case s.queue <- it:
		s.queueDepth.Set(int64(len(s.queue)))
		return true
	default:
		s.shed(tenant, ts, ShedQueue, 1)
		return false
	}
}

// admitBlocking is the TCP admission path: wait for a rate token (the
// backpressure that stops the socket read loop, so TCP flow control slows
// the sender), then a queue slot. Returns false when shutdown aborted the
// wait (the line is accounted as shed).
func (s *Service) admitBlocking(tenant string, ts *tenantStats, raw []byte) bool {
	for {
		ok, wait := s.limiter.Take(tenant)
		if ok {
			break
		}
		select {
		case <-s.clk.After(wait):
		case <-s.done:
			s.shed(tenant, ts, ShedShutdown, 1)
			return false
		}
	}
	return s.enqueue(tenant, ts, raw, true)
}

// admitDropping is the UDP admission path: no token or no queue slot
// sheds the datagram (UDP has no flow control to push on).
func (s *Service) admitDropping(tenant string, ts *tenantStats, raw []byte) bool {
	if ok, _ := s.limiter.Take(tenant); !ok {
		s.shed(tenant, ts, ShedRate, 1)
		return false
	}
	return s.enqueue(tenant, ts, raw, false)
}

// pump is the single consumer of the intake queue: it stamps per-tenant
// sequence numbers and hands lines downstream in admission order. It
// exits when the queue closes (after every producer is gone).
func (s *Service) pump() {
	defer close(s.pumpExited)
	seqs := make(map[string]uint64)
	for it := range s.queue {
		s.queueDepth.Set(int64(len(s.queue)))
		seqs[it.tenant]++
		s.publish(it.tenant, seqs[it.tenant], it.raw, it.admitted)
		s.tenant(it.tenant).published.Add(1)
		s.publishedTotal.Add(1)
	}
}

// producerEnter registers a goroutine (or HTTP handler) that may send on
// the queue; it fails once draining has begun. Callers must call
// producerExit when done.
func (s *Service) producerEnter() bool {
	s.prodMu.Lock()
	defer s.prodMu.Unlock()
	if s.draining {
		return false
	}
	s.producers.Add(1)
	return true
}

func (s *Service) producerExit() { s.producers.Done() }

// trackConn registers a live TCP connection so shutdown can unblock its
// read; untrackConn removes it.
func (s *Service) trackConn(c net.Conn) {
	s.connsMu.Lock()
	s.conns[c] = struct{}{}
	s.connsMu.Unlock()
}

func (s *Service) untrackConn(c net.Conn) {
	s.connsMu.Lock()
	delete(s.conns, c)
	s.connsMu.Unlock()
}

// aLongTimeAgo is a fixed past deadline: setting it on a connection makes
// any blocked or future read return immediately, while data already
// buffered in the framing scanner still drains.
var aLongTimeAgo = time.Unix(1, 0)

// interruptConns makes every tracked connection's blocked read return;
// with force it closes them outright.
func (s *Service) interruptConns(force bool) {
	s.connsMu.Lock()
	for c := range s.conns {
		if force {
			c.Close()
		} else {
			c.SetReadDeadline(aLongTimeAgo)
		}
	}
	s.connsMu.Unlock()
}

// Shutdown drains the front door: listeners stop accepting, in-flight
// HTTP requests and TCP connections finish what they have buffered, the
// queue drains into the publish callback, and the pump exits. Past ctx's
// deadline the remaining blocked admissions are shed (accounted under
// reason "shutdown") instead of waited for. Safe to call more than once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown(ctx, false) })
	return s.shutdownErr
}

// Close aborts the front door without draining: every blocked admission
// sheds immediately and connections are closed. Lines already on the
// queue still reach the publish callback (the queue is bounded, so this
// stays prompt).
func (s *Service) Close() error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown(expiredCtx{}, true) })
	return s.shutdownErr
}

// expiredCtx is an always-done context: Close reuses the shutdown path
// with the grace already elapsed.
type expiredCtx struct{}

func (expiredCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (expiredCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
func (expiredCtx) Err() error    { return context.Canceled }
func (expiredCtx) Value(any) any { return nil }

func (s *Service) shutdown(ctx context.Context, force bool) error {
	if !s.started.Load() {
		s.stopped.Store(true)
		return nil
	}
	close(s.closing)
	s.closeListeners()
	if s.httpSrv != nil {
		s.httpSrv.shutdown(ctx, force)
	}
	// No new producers from here on; the HTTP server has drained (or been
	// force-closed), so only TCP/UDP loops remain in flight.
	s.prodMu.Lock()
	s.draining = true
	s.prodMu.Unlock()
	s.interruptConns(force)

	drained := make(chan struct{})
	go func() {
		s.producers.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		// Grace expired: abort blocked admissions (they shed) and force
		// the sockets closed, then wait for the handlers to notice.
		err = fmt.Errorf("intake: drain grace expired; shedding in-flight lines")
		close(s.done)
		s.interruptConns(true)
		<-drained
	}
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	// All producers gone: the queue can close, and the pump drains what
	// was admitted before exiting.
	close(s.queue)
	<-s.pumpExited
	s.stopped.Store(true)
	return err
}

// Stats snapshots the intake accounting for the dashboard.
func (s *Service) Stats() Stats {
	st := Stats{
		Accepted:      s.acceptedTotal.Value(),
		Published:     s.publishedTotal.Value(),
		Malformed:     s.malformedTotal.Value(),
		FrameErrors:   s.frameErrTotal.Value(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		ActiveConns:   s.active.Load(),
		ConnsRejected: s.connsRejected.Value(),
		TenantRate:    s.cfg.TenantRate,
	}
	st.Shed = s.shedByReason[0].Value() + s.shedByReason[1].Value() + s.shedByReason[2].Value()
	s.tenantsMu.Lock()
	for name, ts := range s.tenants {
		shedRate, shedQueue := ts.shedRate.Load(), ts.shedQueue.Load()
		st.Tenants = append(st.Tenants, TenantSnapshot{
			Tenant:    name,
			Accepted:  ts.accepted.Load(),
			Published: ts.published.Load(),
			Shed:      shedRate + shedQueue + ts.shedShutdown.Load(),
			ShedRate:  shedRate,
			ShedQueue: shedQueue,
		})
	}
	s.tenantsMu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// Probe is the intake health probe: degraded when the queue saturates
// (the service is shedding), unhealthy when a configured listener loop
// has died outside shutdown.
func (s *Service) Probe() obs.ProbeResult {
	if s.stopped.Load() {
		return obs.ProbeResult{Status: obs.Degraded, Detail: "intake stopped"}
	}
	if !s.started.Load() {
		return obs.ProbeResult{Status: obs.Degraded, Detail: "intake not started"}
	}
	if s.udpDead.Load() || s.tcpDead.Load() || s.httpDead.Load() {
		return obs.ProbeResult{Status: obs.Unhealthy, Detail: "intake listener loop dead"}
	}
	depth, capacity := len(s.queue), s.cfg.QueueDepth
	if depth*10 >= capacity*9 {
		return obs.ProbeResult{Status: obs.Degraded,
			Detail: fmt.Sprintf("intake queue %d/%d: shedding imminent", depth, capacity)}
	}
	return obs.ProbeResult{Status: obs.Healthy,
		Detail: fmt.Sprintf("queue %d/%d, %d conns", depth, capacity, s.active.Load())}
}
