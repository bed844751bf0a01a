// Package logmanager implements the log manager of §II: it receives logs
// from agents over the bus in bounded poll batches, identifies their
// sources, archives raw logs into the log storage (organized by source),
// and forwards them downstream to the parser.
package logmanager

import (
	"context"
	"maps"
	"strconv"
	"sync"
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

// Group is the log manager's consumer group. Checkpoints record its
// committed offsets under this name.
const Group = "log-manager"

// Config tunes the Manager.
type Config struct {
	// ArchiveLogs stores raw logs into the log storage (default
	// behaviour; the evaluation harness disables it for pure-throughput
	// runs). Each poll batch is archived with one store.PutBatch per
	// source index, before the batch is forwarded and before OnBatch
	// registers its offsets.
	ArchiveLogs bool

	// Metrics, when set, holds the received/heartbeat/dropped counters
	// (logmanager_* names); nil keeps them private.
	Metrics *metrics.Registry

	// OnBatch, when set, runs the consumer with auto-commit disabled and
	// is invoked after every handled poll batch with the consumed
	// messages: the committed offsets only advance when the recovery
	// layer's commit gate, which registers the batch here, calls Commit.
	OnBatch func(msgs []bus.Message)

	// ForwardBatch receives a poll batch's logs in one call, one hand-off
	// per batch instead of per record. The slice is the Manager's, valid
	// only during the call. A heartbeat-tagged message flushes the logs
	// before it first, so log/heartbeat order holds. ForwardBatch runs
	// before OnBatch, so downstream counters include the batch when the
	// commit gate registers it. Nil drops the logs after archiving.
	ForwardBatch func(logs []logtypes.Log)
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
	heartbeat func(source string, t time.Time)

	// batch accumulates logs between flushes. It is touched only from
	// the single consumption loop (Run XOR DrainOnce), so it needs no
	// lock.
	batch []logtypes.Log

	// archive holds the pending archive documents per source until
	// flushArchive writes them. Confined to the consumption loop like
	// batch.
	archive map[string][]store.Document

	// mu guards the loop state Pause, Handled and Await read.
	mu        sync.Mutex
	consumer  bus.Reader         // the running loop's, for Commit
	handled   map[int]int64      // see Handled
	paused    chan struct{}      // non-nil while a Pause is in force
	parked    atomic.Bool        // see Parked; written under mu
	interrupt context.CancelFunc // ends the current consuming stretch
	changed   chan struct{}      // while someone Awaits; closed on progress

	recvCounter, hbCounter, dropCounter *metrics.Counter
}

// New constructs a Manager. st may be nil when ArchiveLogs is false.
// heartbeat, when set, receives the heartbeat-tagged messages arriving
// on the data channel (§V-B).
func New(b bus.Broker, st *store.Store, cfg Config, heartbeat func(source string, t time.Time)) *Manager {
	m := &Manager{
		cfg:       cfg,
		bus:       b,
		store:     st,
		heartbeat: heartbeat,
		archive:   make(map[string][]store.Document),
		handled:   make(map[int]int64),
	}
	m.parked.Store(true)
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m.recvCounter = reg.Counter("logmanager_received_total")
	m.hbCounter = reg.Counter("logmanager_heartbeats_total")
	m.dropCounter = reg.Counter("logmanager_dropped_total")
	return m
}

// Received returns the number of logs consumed from the bus.
func (m *Manager) Received() uint64 { return m.recvCounter.Value() }

// Run consumes the logs topic until ctx is done. A consumer with Wait
// (the in-process bus) is drained with TryPoll and parks in Wait when
// that comes back empty; other readers (netbus) long-poll with Poll. A
// Pause cuts either park short.
func (m *Manager) Run(ctx context.Context) error {
	consumer, err := m.bus.Subscribe(Group, agent.LogsTopic)
	if err != nil {
		return err
	}
	if m.cfg.OnBatch != nil {
		consumer.DisableAutoCommit()
	}
	// Handled starts at the group's position: a restored group can sit
	// ahead of a rebuilt topic, with nothing below its offsets to handle.
	committed := m.Committed()
	m.mu.Lock()
	m.consumer = consumer
	for part, off := range committed {
		m.handled[part] = max(m.handled[part], off)
	}
	m.signalLocked()
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.parked.Store(true)
		m.signalLocked()
		m.mu.Unlock()
	}()
	waiter, _ := consumer.(interface{ Wait(context.Context) error })
	for ctx.Err() == nil && err == nil {
		run, stop := m.unpaused(ctx)
		for run.Err() == nil && err == nil {
			var msgs []bus.Message
			if waiter == nil {
				msgs, err = consumer.Poll(run, pollBatchMax)
			} else if msgs = consumer.TryPoll(pollBatchMax); len(msgs) == 0 {
				err = waiter.Wait(run)
			}
			if run.Err() != nil {
				err = nil
			}
			m.handleBatch(msgs)
		}
		stop()
	}
	return err
}

// unpaused parks while a Pause is in force, then returns the context of
// the next consuming stretch, which the next Pause cancels.
func (m *Manager) unpaused(ctx context.Context) (context.Context, context.CancelFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for resume := m.paused; resume != nil && ctx.Err() == nil; resume = m.paused {
		m.parked.Store(true)
		m.signalLocked()
		m.mu.Unlock()
		select {
		case <-resume:
		case <-ctx.Done():
		}
		m.mu.Lock()
	}
	run, stop := context.WithCancel(ctx)
	m.interrupt = stop
	m.parked.Store(false)
	return run, stop
}

// Pause stops the consumption loop, finishing a batch in hand or cutting
// a park short, and returns the cut, Handled at the park, or ctx's error
// if the loop does not park in time. The pause holds until Resume.
func (m *Manager) Pause(ctx context.Context) (map[int]int64, error) {
	m.mu.Lock()
	if m.paused == nil {
		m.paused = make(chan struct{})
	}
	if m.interrupt != nil {
		m.interrupt()
	}
	m.mu.Unlock()
	if err := m.Await(ctx, m.Parked); err != nil {
		return nil, err
	}
	return m.Handled(), nil
}

// Parked reports that the loop is not consuming: it is parked on a
// Pause, or not running.
func (m *Manager) Parked() bool { return m.parked.Load() }

// Resume lets a paused loop consume again.
func (m *Manager) Resume() {
	m.mu.Lock()
	if m.paused != nil {
		close(m.paused)
		m.paused = nil
	}
	m.mu.Unlock()
}

// Handled returns, per logs-topic partition, the offset after the last
// message the loop has archived and forwarded.
func (m *Manager) Handled() map[int]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.handled)
}

// Committed returns the group's committed offsets per logs-topic
// partition, as the broker reports them.
func (m *Manager) Committed() map[int]int64 {
	out := make(map[int]int64)
	for key, off := range m.bus.GroupOffsets(Group) {
		if topic, part, err := bus.SplitPartitionKey(key); err == nil && topic == agent.LogsTopic {
			out[part] = off
		}
	}
	return out
}

// Commit advances the group's committed offsets to offsets, per
// logs-topic partition, through the running loop's consumer. Commits
// never regress.
func (m *Manager) Commit(offsets map[int]int64) {
	m.mu.Lock()
	c := m.consumer
	m.mu.Unlock()
	for part, off := range offsets {
		c.Commit(agent.LogsTopic, part, off)
	}
}

// Await blocks until cond holds or ctx is done. It re-checks cond, which
// runs without the Manager's lock, after every batch the loop handles,
// when the loop parks, and at every Notify.
func (m *Manager) Await(ctx context.Context, cond func() bool) error {
	for {
		m.mu.Lock()
		if m.changed == nil {
			m.changed = make(chan struct{})
		}
		changed := m.changed
		m.mu.Unlock()
		if cond() {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Notify wakes Await, so a condition on downstream progress (the
// engine's micro-batch barriers) is re-checked when it may have changed.
func (m *Manager) Notify() {
	m.mu.Lock()
	m.signalLocked()
	m.mu.Unlock()
}

func (m *Manager) signalLocked() {
	if m.changed != nil {
		close(m.changed)
		m.changed = nil
	}
}

// handleBatch identifies, archives and forwards one poll batch, records
// its offsets as handled, then hands it to OnBatch.
func (m *Manager) handleBatch(msgs []bus.Message) {
	if len(msgs) == 0 {
		return
	}
	for _, msg := range msgs {
		m.handle(msg)
	}
	m.flushBatch()
	m.mu.Lock()
	for i, msg := range msgs {
		// A poll returns each partition's messages as one ascending run:
		// the last of a run is its highest offset.
		if i+1 == len(msgs) || msgs[i+1].Partition != msg.Partition {
			m.handled[msg.Partition] = max(m.handled[msg.Partition], msg.Offset+1)
		}
	}
	m.signalLocked()
	m.mu.Unlock()
	if m.cfg.OnBatch != nil {
		m.cfg.OnBatch(msgs)
	}
}

// DrainOnce consumes and forwards everything currently pending, without
// blocking — used by batch-mode harnesses that replay a finite corpus.
func (m *Manager) DrainOnce() int {
	consumer, err := m.bus.Subscribe(Group, agent.LogsTopic)
	if err != nil {
		return 0
	}
	n := 0
	for msgs := consumer.TryPoll(pollBatchMax); len(msgs) > 0; msgs = consumer.TryPoll(pollBatchMax) {
		m.handleBatch(msgs)
		n += len(msgs)
	}
	return n
}

// flushBatch archives the pending logs, then hands the accumulated logs
// downstream in one call and recycles the buffer. Entries are zeroed
// before reuse so the backing array does not pin raw-log payloads across
// batches.
func (m *Manager) flushBatch() {
	m.flushArchive()
	if len(m.batch) == 0 {
		return
	}
	if m.cfg.ForwardBatch != nil {
		m.cfg.ForwardBatch(m.batch)
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

// handle identifies the source and queues one message's archive write
// and downstream hand-off. Heartbeat-tagged messages go to the heartbeat
// hook instead.
func (m *Manager) handle(msg bus.Message) {
	source := msg.Headers[agent.HeaderSource]
	if source == "" {
		// Source identification fallback: the partition key.
		source = msg.Key
	}
	if hb := msg.Headers[agent.HeaderHeartbeat]; hb != "" {
		t, err := time.Parse(time.RFC3339Nano, hb)
		if err != nil || source == "" {
			m.dropCounter.Inc()
			return
		}
		m.hbCounter.Inc()
		if m.heartbeat != nil {
			// A heartbeat must not overtake logs consumed before it:
			// expiry driven by an early heartbeat would see states the
			// buffered logs have yet to open.
			m.flushBatch()
			m.heartbeat(source, t)
		}
		return
	}
	if source == "" {
		m.dropCounter.Inc()
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
	m.recvCounter.Inc()

	if m.cfg.ArchiveLogs && m.store != nil {
		m.archive[source] = append(m.archive[source], modelmgr.ArchiveDoc(l))
	}
	m.batch = append(m.batch, l)
}
