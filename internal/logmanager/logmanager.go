// Package logmanager implements the log manager of §II: it receives logs
// from agents over the bus, identifies their sources, controls the
// incoming rate, archives raw logs into the log storage (organized by
// source), and forwards them downstream to the parser.
package logmanager

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"

	"loglens/internal/agent"
	"loglens/internal/bus"
	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/modelmgr"
	"loglens/internal/store"
)

// Config tunes the Manager.
type Config struct {
	// Group is the consumer-group name (default "log-manager").
	Group string

	// MaxRatePerSec throttles forwarding (0 = unthrottled): the "rate
	// control" knob protecting downstream parsing from bursts.
	MaxRatePerSec int

	// ArchiveLogs stores raw logs into the log storage (default
	// behaviour; the evaluation harness disables it for pure-throughput
	// runs). Each poll batch is archived with one store.PutBatch per
	// source index, before the batch is forwarded (with ForwardBatch) and
	// before OnBatch registers its offsets.
	ArchiveLogs bool

	// Metrics, when set, mirrors the received/heartbeat/dropped counters
	// into the registry (logmanager_* names).
	Metrics *metrics.Registry

	// Tracer, when set, stamps StageBus for every log consumed off the
	// bus.
	Tracer metrics.Tracer

	// ManualCommit runs the consumer with auto-commit disabled: the
	// committed offsets only advance when someone (the recovery layer's
	// commit gate) calls Commit on the group. Run also switches to a
	// pausable polling loop so a checkpoint can quiesce intake.
	ManualCommit bool

	// OnBatch, when set, is invoked after every handled poll batch with
	// the consumed messages — the recovery layer registers their offsets
	// as a pending commit gated on downstream processing.
	OnBatch func(msgs []bus.Message)

	// ForwardBatch, when set, replaces the per-log forward hook: logs
	// accumulate across a poll batch and are handed downstream in one
	// call, amortizing the per-record hand-off into per-partition batch
	// slices on the engine's worker queues. The slice is owned by the
	// Manager and valid only for the duration of the call.
	// Heartbeat-tagged messages flush the pending batch first, so
	// log/heartbeat ordering is preserved. ForwardBatch runs before
	// OnBatch, so downstream counters include the batch when the commit
	// gate registers it.
	ForwardBatch func(logs []logtypes.Log)

	// OnAdmit, when set, receives the newest Arrival stamp of every
	// forwarded poll batch — the admission watermark of the freshness
	// plane. One scan per batch (≤ pollBatchMax logs) keeps the cost
	// off the per-line path.
	OnAdmit func(newest time.Time)
}

// pollBatchMax caps how many messages one poll may return. Unbounded
// polls let a momentarily lagging consumer swallow the whole backlog as
// one giant slice — the allocation (and its zeroing) of those arrays,
// plus the matching downstream record buffers, dwarfs the per-line work.
// Bounded polls keep every buffer in the pipeline pool-sized.
const pollBatchMax = 1024

// Manager pumps logs from the bus into the processing pipeline.
type Manager struct {
	cfg       Config
	bus       bus.Broker
	store     *store.Store
	forward   func(logtypes.Log)
	forwardHB func(source string, t time.Time)

	received atomic.Uint64
	dropped  atomic.Uint64

	// batch accumulates logs between flushes when ForwardBatch is set.
	// It is touched only from the single consumption loop (Run XOR
	// DrainOnce), so it needs no lock.
	batch []logtypes.Log

	// archive holds the pending archive documents per source until
	// flushArchive writes them. Confined to the consumption loop like
	// batch.
	archive map[string][]store.Document

	// paused/idle implement checkpoint quiescence: Pause stops the
	// ManualCommit polling loop from consuming; idle reports that the
	// loop has observed the pause and is parked, so no more forwards are
	// in flight.
	paused atomic.Bool
	idle   atomic.Bool

	// busy covers the auto-committing loop from just before a poll until
	// the polled batch has been forwarded (see Run).
	busy atomic.Bool

	recvCounter *metrics.Counter
	hbCounter   *metrics.Counter
	dropCounter *metrics.Counter
}

// New constructs a Manager. forward is the downstream hook (the parser
// stage); st may be nil when ArchiveLogs is false.
func New(b bus.Broker, st *store.Store, cfg Config, forward func(logtypes.Log)) *Manager {
	if cfg.Group == "" {
		cfg.Group = "log-manager"
	}
	m := &Manager{cfg: cfg, bus: b, store: st, forward: forward, archive: make(map[string][]store.Document)}
	if cfg.Metrics != nil {
		m.recvCounter = cfg.Metrics.Counter("logmanager_received_total")
		m.hbCounter = cfg.Metrics.Counter("logmanager_heartbeats_total")
		m.dropCounter = cfg.Metrics.Counter("logmanager_dropped_total")
	}
	return m
}

// OnHeartbeat installs the hook invoked for heartbeat-tagged messages
// arriving on the data channel (§V-B).
func (m *Manager) OnHeartbeat(fn func(source string, t time.Time)) {
	m.forwardHB = fn
}

// Received returns the number of logs consumed from the bus.
func (m *Manager) Received() uint64 { return m.received.Load() }

// Pause asks the ManualCommit polling loop to stop consuming; Idle
// reports when it has parked. Pause before a checkpoint barrier, Resume
// after. Without ManualCommit these are advisory only (the blocking Poll
// loop keeps consuming).
func (m *Manager) Pause()  { m.paused.Store(true) }
func (m *Manager) Resume() { m.paused.Store(false) }

// Idle reports that the polling loop is parked on a Pause: nothing is
// being consumed or forwarded, so upstream counters are final.
func (m *Manager) Idle() bool { return m.idle.Load() }

// Busy reports that the auto-committing loop may hold a polled batch it has
// not yet forwarded. Read it after observing a committed lag of zero: not
// busy then means everything consumed so far has gone downstream. Always
// false under ManualCommit, where commits already trail the sink.
func (m *Manager) Busy() bool { return m.busy.Load() }

// Run consumes the logs topic until the context is done.
func (m *Manager) Run(ctx context.Context) error {
	consumer, err := m.bus.Subscribe(m.cfg.Group, agent.LogsTopic)
	if err != nil {
		return err
	}
	var limiter *time.Ticker
	if m.cfg.MaxRatePerSec > 0 {
		limiter = time.NewTicker(time.Second / time.Duration(m.cfg.MaxRatePerSec))
		defer limiter.Stop()
	}
	if m.cfg.ManualCommit {
		consumer.DisableAutoCommit()
		return m.runPausable(ctx, consumer, limiter)
	}
	// A poll commits the offsets of what it returns, before any of it is
	// forwarded. busy is raised before the poll and lowered only after an
	// empty one, so "committed lag 0, then not busy" proves that every
	// polled batch has been forwarded. The in-process consumer can wait
	// for data without consuming; other readers fall back to the blocking
	// poll, where busy rises only once the poll has returned.
	waiter, _ := consumer.(interface{ Wait(context.Context) error })
	for {
		m.busy.Store(true)
		msgs := consumer.TryPoll(pollBatchMax)
		if len(msgs) == 0 {
			m.busy.Store(false)
			var err error
			if waiter != nil {
				err = waiter.Wait(ctx)
			} else {
				msgs, err = consumer.Poll(ctx, pollBatchMax)
				m.busy.Store(true)
			}
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
			if len(msgs) == 0 {
				continue
			}
		}
		for _, msg := range msgs {
			if limiter != nil {
				select {
				case <-limiter.C:
				case <-ctx.Done():
					return nil
				}
			}
			m.handle(msg)
		}
		m.flushBatch()
		if m.cfg.OnBatch != nil {
			m.cfg.OnBatch(msgs)
		}
	}
}

// runPausable is the ManualCommit consumption loop: non-blocking polls so
// a Pause takes effect between batches, with Idle acknowledging that the
// loop is parked.
func (m *Manager) runPausable(ctx context.Context, consumer bus.Reader, limiter *time.Ticker) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		if m.paused.Load() {
			m.idle.Store(true)
			time.Sleep(time.Millisecond)
			continue
		}
		m.idle.Store(false)
		msgs := consumer.TryPoll(pollBatchMax)
		if len(msgs) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, msg := range msgs {
			if limiter != nil {
				select {
				case <-limiter.C:
				case <-ctx.Done():
					return nil
				}
			}
			m.handle(msg)
		}
		m.flushBatch()
		if m.cfg.OnBatch != nil {
			m.cfg.OnBatch(msgs)
		}
	}
}

// DrainOnce consumes and forwards everything currently pending, without
// blocking — used by batch-mode harnesses that replay a finite corpus.
func (m *Manager) DrainOnce() int {
	consumer, err := m.bus.Subscribe(m.cfg.Group, agent.LogsTopic)
	if err != nil {
		return 0
	}
	n := 0
	for {
		msgs := consumer.TryPoll(pollBatchMax)
		if len(msgs) == 0 {
			return n
		}
		for _, msg := range msgs {
			m.handle(msg)
			n++
		}
		m.flushBatch()
	}
}

// flushBatch archives the pending logs, then hands the accumulated logs
// downstream in one call and recycles the buffer. Entries are zeroed
// before reuse so the backing array does not pin raw-log payloads across
// batches. Without ForwardBatch the logs went downstream one by one as
// they were handled, so their archive write trails them; it still lands
// before OnBatch.
func (m *Manager) flushBatch() {
	m.flushArchive()
	if len(m.batch) == 0 {
		return
	}
	m.cfg.ForwardBatch(m.batch)
	if m.cfg.OnAdmit != nil {
		newest := m.batch[0].Arrival
		for _, l := range m.batch[1:] {
			if l.Arrival.After(newest) {
				newest = l.Arrival
			}
		}
		m.cfg.OnAdmit(newest)
	}
	for i := range m.batch {
		m.batch[i] = logtypes.Log{}
	}
	m.batch = m.batch[:0]
}

// flushArchive writes the pending archive documents, one PutBatch per
// source index. The store keeps the documents.
func (m *Manager) flushArchive() {
	for source, docs := range m.archive {
		m.store.Index(modelmgr.LogsIndexFor(source)).PutBatch(docs)
	}
	clear(m.archive)
}

// handle identifies the source, queues the archive write, and forwards
// one message.
// Heartbeat-tagged messages are routed to the heartbeat hook instead of
// the log path.
func (m *Manager) handle(msg bus.Message) {
	source := msg.Headers[agent.HeaderSource]
	if source == "" {
		// Source identification fallback: the partition key.
		source = msg.Key
	}
	if hb := msg.Headers[agent.HeaderHeartbeat]; hb != "" {
		t, err := time.Parse(time.RFC3339Nano, hb)
		if err != nil || source == "" {
			m.drop()
			return
		}
		if m.hbCounter != nil {
			m.hbCounter.Inc()
		}
		if m.forwardHB != nil {
			// A heartbeat must not overtake logs consumed before it:
			// expiry driven by an early heartbeat would see states the
			// buffered logs have yet to open.
			m.flushBatch()
			m.forwardHB(source, t)
		}
		return
	}
	if source == "" {
		m.drop()
		return
	}
	var seq uint64
	if s := msg.Headers[agent.HeaderSeq]; s != "" {
		seq, _ = strconv.ParseUint(s, 10, 64)
	}
	// Raw aliases the payload without copying: the bus's Publish contract
	// makes message values immutable once published, so the string view
	// is safe and the hot path saves a per-line copy.
	var raw string
	if len(msg.Value) > 0 {
		raw = unsafe.String(unsafe.SliceData(msg.Value), len(msg.Value))
	}
	l := logtypes.Log{
		Source:  source,
		Seq:     seq,
		Arrival: msg.Time,
		Raw:     raw,
	}
	m.received.Add(1)
	if m.recvCounter != nil {
		m.recvCounter.Inc()
	}
	if m.cfg.Tracer != nil {
		m.cfg.Tracer.Stamp(source, seq, metrics.StageBus,
			msg.Topic+"/"+strconv.Itoa(msg.Partition)+"@"+strconv.FormatInt(msg.Offset, 10))
	}

	if m.cfg.ArchiveLogs && m.store != nil {
		m.archive[source] = append(m.archive[source], modelmgr.ArchiveDoc(l))
	}
	if m.cfg.ForwardBatch != nil {
		m.batch = append(m.batch, l)
		return
	}
	if m.forward != nil {
		m.forward(l)
	}
}

// drop accounts one unroutable message.
func (m *Manager) drop() {
	m.dropped.Add(1)
	if m.dropCounter != nil {
		m.dropCounter.Inc()
	}
}
