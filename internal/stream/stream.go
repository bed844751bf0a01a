// Package stream is the micro-batch streaming engine LogLens runs on —
// the substitution for Spark Streaming (§II, §V). It reproduces the
// execution model the paper's Section V contributions modify:
//
//   - Input records are partitioned by key across N workers; each worker
//     collects its own micro-batches and processes its partition's
//     records serially, so per-key state needs no locking.
//   - Broadcast variables live on the driver; workers keep local cached
//     copies and pull from the driver on a cache miss (the getValue()
//     protocol of §V-A).
//   - The rebroadcast extension (§V-A): a broadcast variable can be
//     updated at runtime with zero downtime. The update is queued, applied
//     between micro-batches under a serialized lock step, worker-local
//     caches are invalidated, and the next getValue() pulls the new value
//     from the driver — the job never restarts and partition state maps
//     survive.
//   - Per-partition state maps are exposed to the operator (the
//     getParentStateMap() extension of §V-B) so heartbeat messages can
//     enumerate and expire open states they have no key for.
//   - Heartbeat records are fanned to every partition by the custom
//     partitioner (§V-B), regardless of key.
//
// Execution model: every partition is a persistent worker goroutine that
// owns a bounded input queue, its own micro-batch timer on the injected
// clock, its state map and broadcast cache, and its retry queue. Records
// are routed to worker queues at enqueue time (Send/SendBatch), so a hot
// partition backs up only its own queue — other partitions keep batching
// independently instead of stalling at a global per-batch barrier. The
// cross-partition synchronization that remains is intentionally narrow: a
// barrier lock serializing sink emission and the shared commit frontier,
// and a control lock serializing rebroadcast installs and state
// inspections.
package stream

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/clock"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// Record is one input record.
type Record struct {
	// Key selects the partition (records with equal keys are processed
	// in order by the same partition).
	Key string
	// Value is the payload.
	Value any
	// Time is the record's event time.
	Time time.Time
	// Heartbeat marks the record as a heartbeat: the partitioner
	// duplicates it to every partition.
	Heartbeat bool

	// fan is the shared countdown for a heartbeat's per-partition copies:
	// the engine accepts one heartbeat but delivers Partitions copies, and
	// only the copy that decrements the token to zero carries the record's
	// Records/Resolved/RecordsDropped count — so conservation stays exact
	// in input-record units.
	fan *hbFan
	// seq is the record's acceptance sequence number, assigned at
	// enqueue. Workers retire their records in seq order (queues are
	// FIFO, retries block the frontier), which is what lets the commit
	// frontier reported to BatchHook be computed from one watermark per
	// worker. Heartbeats are seq-less (zero): commit watermarks count
	// forwarded log records only.
	seq uint64
}

// hbFan is the fan-out token shared by a heartbeat's partition copies.
type hbFan struct {
	left atomic.Int32
	// void marks a heartbeat whose fan-out was interrupted by Close after
	// some copies were already queued. The delivered copies still run
	// (expiry sweeps are idempotent) but the record was reported rejected
	// to the sender, so no copy may count it as accepted.
	void atomic.Bool
}

// resolveCopy reports whether this copy of the record carries its
// conservation count: always for plain records, and for heartbeats only
// on the copy that retires the fan-out token.
func (rec *Record) resolveCopy() bool {
	if rec.fan == nil {
		return true
	}
	if rec.fan.left.Add(-1) != 0 {
		return false
	}
	return !rec.fan.void.Load()
}

// workerMsg is one hand-off on a worker's input queue: either a single
// record (batch nil) or a whole batch slice from the RecordBuffer pool.
// A single queue for both keeps Send and SendBatch strictly ordered
// relative to each other per partition.
type workerMsg struct {
	rec   Record
	batch []Record
}

// ProcessFunc is the per-record operator. It runs serially within a
// partition and may emit any number of outputs.
type ProcessFunc func(ctx *Context, rec Record) []any

// Config tunes the engine.
type Config struct {
	// Partitions is the worker count (default 4).
	Partitions int
	// BatchInterval is the micro-batch collection window (default
	// 10ms). Each worker runs its own window timer.
	BatchInterval time.Duration
	// MaxBatch caps records per micro-batch (default 4096), applied per
	// worker.
	MaxBatch int
	// InputBuffer is the total queued-record capacity (default 8192),
	// divided evenly across the per-worker queues.
	InputBuffer int
	// Partitioner overrides key-hash partitioning for non-heartbeat
	// records.
	Partitioner func(rec Record, partitions int) int
	// Clock is the engine's time source (default the wall clock). A fake
	// clock makes the micro-batch cadence manually drivable: batches
	// close when Advance crosses a worker's BatchInterval deadline.
	Clock clock.Clock
	// Name labels this engine's metrics (the "engine" label value);
	// default "stream". Several engines sharing one registry need
	// distinct names.
	Name string
	// Ops is the ops plane: stream_* metrics in its registry, span
	// tracing of the micro-batch hierarchy (per-partition process and
	// sink lanes), and flight-recorder events for rebroadcasts, operator
	// panics, and dropped records. Nil leaves the engine uninstrumented:
	// only the built-in Metrics struct is maintained.
	Ops *obs.Ops
	// BatchHook, when set, is called under the engine's barrier lock at
	// every micro-batch barrier — including empty ones — with the
	// engine's resolved frontier: the length of the longest prefix of
	// accepted records (in acceptance order, heartbeats counted once)
	// that are all fully resolved. The frontier is monotone across
	// calls, and a record enters it only after the micro-batch that
	// retired it has drained its outputs through the sink — so the
	// recovery layer can commit offsets for the first N accepted records
	// the moment the hook reports N, no matter how partition workers
	// interleaved. Out-of-order resolution across partitions (a fast
	// partition racing ahead of a backed-up one) holds the frontier back
	// instead of inflating it.
	BatchHook func(resolved uint64)
	// OnBarrier, when set, is called under the barrier lock at every
	// micro-batch barrier — including empty ones — after the batch (if
	// any) has fully resolved. The latency plane uses it to re-age the
	// freshness watermark gauges on the batch cadence, so a partition
	// that stops making progress shows growing lag instead of a frozen
	// gauge.
	OnBarrier func()
	// PanicHook, when set, is consulted when the operator panics on a
	// record: return true to requeue the record for another attempt in
	// the partition's next micro-batch, false to drop it (the
	// pre-recovery behavior). Heartbeat records are never requeued
	// regardless of the hook's answer — they are cheap to lose and fan
	// out to every partition. The hook must bound its retries (e.g.
	// quarantine after K strikes) or a poisonous record would cycle
	// forever.
	PanicHook func(partition int, rec Record, v any) bool
}

func (c *Config) setDefaults() {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.BatchInterval <= 0 {
		c.BatchInterval = 10 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.InputBuffer <= 0 {
		c.InputBuffer = 8192
	}
	if c.Partitioner == nil {
		// Inline FNV-1a: hash.fnv's New32a allocates a hasher per record.
		c.Partitioner = func(rec Record, partitions int) int {
			h := uint32(2166136261)
			for i := 0; i < len(rec.Key); i++ {
				h ^= uint32(rec.Key[i])
				h *= 16777619
			}
			return int(h % uint32(partitions))
		}
	}
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.Name == "" {
		c.Name = "stream"
	}
}

// Metrics counts engine activity. Snapshot via Engine.Metrics.
type Metrics struct {
	// Batches and Records count processed micro-batches and records.
	// Batches are per-partition: each worker's closed collection window
	// counts one.
	Batches uint64
	Records uint64
	// UpdatesApplied counts rebroadcasts applied between batches.
	UpdatesApplied uint64
	// BroadcastPulls counts worker pulls from the driver (cache
	// misses); BroadcastHits counts worker-local cache hits.
	BroadcastPulls uint64
	BroadcastHits  uint64
	// UpdateBlocked accumulates the serialized lock-step time spent
	// applying updates — the only blocking cost of a model update
	// (§V-A: "the only blocking operation is the in-memory copy").
	UpdateBlocked time.Duration
	// OperatorPanics counts operator panics contained by the engine. The
	// partition survives: one poisonous record must not take down the
	// zero-downtime service. Without a PanicHook the record is dropped;
	// with one it may be requeued (counted under Retried).
	OperatorPanics uint64
	// RecordsDropped counts records the engine accepted but never ran
	// through the operator because Run was cancelled mid-batch. Together
	// with Records it makes the engine conservative: every record Send
	// accepted is eventually counted processed or dropped.
	RecordsDropped uint64
	// Retried counts records requeued by the PanicHook for another
	// attempt. Each retry attempt is counted again in Records, so
	// Records is "processing attempts", not unique records.
	Retried uint64
	// Resolved counts input records fully handled: processed to
	// completion (outputs drained through the sink), dropped by panic
	// containment, or quarantined — every outcome except "requeued for
	// retry". A record accepted by Send increments Resolved exactly
	// once, and only after the micro-batch that retired it has emitted
	// its outputs, which makes Resolved the commit-gate watermark: when
	// Resolved catches up with the sender's accepted count, nothing is
	// buffered, processing, or awaiting retry.
	Resolved uint64
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("stream: engine closed")

type update struct {
	id    string
	value any
}

// inspectReq is one queued Inspect. visited/remaining/completed are
// guarded by Engine.updMu: each worker runs fn for its own partition at
// most once, at its own barrier; whoever completes the set closes done.
type inspectReq struct {
	fn        func(partition int, states *StateMap)
	done      chan struct{}
	visited   []bool
	remaining int
	completed bool
}

// Engine is the micro-batch engine. Configure (operator, broadcasts)
// before Run; Send may be called concurrently with Run.
type Engine struct {
	cfg  Config
	proc ProcessFunc
	sink func(any)

	// batchSem bounds in-flight batch hand-offs across all worker
	// queues: without it a fast producer parks thousands of batch slices
	// in the queues, the RecordBuffer pool never sees them back, and
	// every batch becomes a fresh allocation. The shallow bound restores
	// the backpressure (and pool cycling) a dedicated small batch
	// channel used to provide.
	batchSem  chan struct{}
	recPool   sync.Pool
	partsPool sync.Pool
	closed    chan struct{}
	once      sync.Once

	driver  *driver
	workers []*worker

	// ctrlSeq versions the control plane: it is bumped whenever a
	// rebroadcast or inspection is queued. Workers compare it against a
	// local cursor at every barrier — one atomic load on the hot path —
	// and take updMu only when it moved.
	ctrlSeq  atomic.Uint64
	updMu    sync.Mutex
	pending  []update
	inspects []*inspectReq

	// barrierMu is the merged commit frontier: each worker takes it at
	// its own micro-batch barrier to drain its outputs (sink calls stay
	// serialized, in per-partition order) and advance the shared
	// Resolved watermark, so BatchHook observes monotone, post-sink
	// values no matter which partitions are active.
	barrierMu sync.Mutex
	// seqCtr assigns acceptance sequence numbers (Record.seq); the
	// sender bumps the target worker's enq counter before taking a seq,
	// so any seq visible to a frontier snapshot is already reflected in
	// its owner's pending count.
	seqCtr atomic.Uint64
	// frontierHi (guarded by barrierMu) is the high-water frontier
	// reported to BatchHook. Retirement is irreversible, so once a
	// prefix was certified resolved it stays certified even when an
	// idle worker's stale per-worker watermark would momentarily drag
	// the instantaneous minimum back down.
	frontierHi uint64

	metMu   sync.Mutex
	metrics Metrics

	// bcHits/bcPulls are the broadcast cache counters. They are the only
	// Metrics fields written per record (every record consults a
	// broadcast), so they are atomics rather than metMu-guarded —
	// per-record mutex traffic would serialize the partitions.
	bcHits  atomic.Uint64
	bcPulls atomic.Uint64

	// instr mirrors the built-in counters into the shared registry; nil
	// when Config.Ops is unset, so uninstrumented engines pay only a nil
	// check.
	instr *engineInstr

	// spans/events are the ops-plane recorders (nil when Config.Ops is
	// unset). driverTid is the span thread for driver-side work
	// (rebroadcast installs); workers carry their own tids.
	spans     *obs.SpanRecorder
	events    *obs.FlightRecorder
	driverTid int

	// running reports whether Run is currently executing — the pipeline
	// liveness probe's signal.
	running atomic.Bool
}

// batchSizeBuckets are record-count bounds for the batch-size histogram
// (powers of four up to the default MaxBatch).
var batchSizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096}

// engineInstr holds the engine's registry handles, resolved once at
// construction so the per-batch cost is plain atomic updates.
type engineInstr struct {
	reg     *metrics.Registry
	name    string
	batches *metrics.Counter
	records *metrics.Counter
	// Dropped records carry a reason label: "abandoned" for accepted
	// records discarded at cancellation, "send-after-close" for records
	// rejected by Send with ErrClosed (never accepted, so excluded from
	// the built-in Metrics.RecordsDropped conservation count).
	droppedAbandoned *metrics.Counter
	droppedClosed    *metrics.Counter
	updates          *metrics.Counter
	panics           *metrics.Counter
	retried          *metrics.Counter
	size             *metrics.Histogram
	latency          *metrics.Histogram
	// entries[p] tracks partition p's state-map size, refreshed by each
	// worker at its own micro-batch barrier.
	entries []*metrics.Gauge
}

func newEngineInstr(reg *metrics.Registry, name string, partitions int) *engineInstr {
	in := &engineInstr{
		reg:              reg,
		name:             name,
		batches:          reg.Counter("stream_batches_total", "engine", name),
		records:          reg.Counter("stream_records_total", "engine", name),
		droppedAbandoned: reg.Counter("stream_records_dropped_total", "engine", name, "reason", "abandoned"),
		droppedClosed:    reg.Counter("stream_records_dropped_total", "engine", name, "reason", "send-after-close"),
		updates:          reg.Counter("stream_updates_applied_total", "engine", name),
		panics:           reg.Counter("stream_operator_panics_total", "engine", name),
		retried:          reg.Counter("stream_records_retried_total", "engine", name),
		size:             reg.Histogram("stream_batch_size", batchSizeBuckets, "engine", name),
		latency:          reg.Histogram("stream_batch_seconds", nil, "engine", name),
	}
	for i := 0; i < partitions; i++ {
		in.entries = append(in.entries, reg.Gauge("stream_state_entries", "engine", name, "partition", strconv.Itoa(i)))
	}
	return in
}

// driver holds the authoritative broadcast blocks (§V-A: the variable "is
// initially stored" at the driver; workers pull values over the network).
type driver struct {
	mu     sync.RWMutex
	blocks map[string]block
}

type block struct {
	value   any
	version uint64
}

// worker is one partition executor: a persistent goroutine owning its
// input queue, micro-batch timer, state map, broadcast cache, and retry
// queue.
type worker struct {
	id     int
	states *StateMap
	cache  map[string]block
	tid    int // span thread for this partition's lane

	// queue carries this partition's records; wake (capacity 1) nudges
	// the worker to close its collection window early so a queued
	// inspection is served without waiting out the batch interval.
	queue chan workerMsg
	wake  chan struct{}

	// Owned by the worker goroutine, no locking: requeued records,
	// collect scratch, output scratch, and the control-plane cursor.
	retries  []Record
	batchBuf []Record
	outBuf   []any
	seenSeq  uint64

	// Frontier bookkeeping. enq counts records assigned to this worker
	// (bumped by the sender before the seq is even taken); done counts
	// records the worker has retired post-sink (dropped ones included).
	// While they differ the worker constrains the engine frontier to
	// front — the highest seq with every lower-or-equal seq this worker
	// owns retired. front is only meaningful while the worker is
	// constrained, which sidesteps staleness when it sat idle.
	enq   atomic.Uint64
	done  atomic.Uint64
	front atomic.Uint64

	// inval lists broadcast IDs whose cached copies this worker must
	// drop: appended by whichever worker installs a rebroadcast and
	// drained by the owner at its next barrier, both under Engine.updMu,
	// so the unsynchronized cache map is only ever touched by its owner.
	inval []string

	// procLabel/sinkLabel are this partition's span labels, precomputed
	// at construction so processing a batch does not rebuild the strings.
	procLabel string
	sinkLabel string

	// pulled mirrors the versions this worker has actually fetched from
	// the driver (written only on the rare cache-miss path) so the
	// version-skew health probe can compare worker views against the
	// driver without touching the unsynchronized cache map.
	pulled sync.Map // broadcast id → uint64 version
}

// New constructs an Engine with the given operator.
func New(cfg Config, proc ProcessFunc) *Engine {
	cfg.setDefaults()
	e := &Engine{
		cfg:      cfg,
		proc:     proc,
		batchSem: make(chan struct{}, 16),
		closed:   make(chan struct{}),
		driver:   &driver{blocks: make(map[string]block)},
	}
	if cfg.Ops != nil {
		e.spans = cfg.Ops.Spans
		e.events = cfg.Ops.Events
		e.instr = newEngineInstr(cfg.Ops.Metrics, cfg.Name, cfg.Partitions)
	}
	e.driverTid = e.spans.Thread(cfg.Name + " driver")
	queueCap := cfg.InputBuffer / cfg.Partitions
	if queueCap < 64 {
		queueCap = 64
	}
	for i := 0; i < cfg.Partitions; i++ {
		label := strconv.Itoa(i)
		e.workers = append(e.workers, &worker{
			id:        i,
			states:    NewStateMap(),
			cache:     make(map[string]block),
			tid:       e.spans.Thread(cfg.Name + " p" + label),
			queue:     make(chan workerMsg, queueCap),
			wake:      make(chan struct{}, 1),
			procLabel: "p" + label + " process",
			sinkLabel: "p" + label + " sink",
		})
	}
	return e
}

// SetSink installs the output consumer. It is called under the engine's
// barrier lock — never concurrently, with each partition's outputs in
// processing order — but may run on any worker goroutine. Must be set
// before Run.
func (e *Engine) SetSink(sink func(any)) { e.sink = sink }

// Partitions returns the partition count.
func (e *Engine) Partitions() int { return e.cfg.Partitions }

// Broadcast registers (or replaces) a broadcast variable immediately. Use
// before Run; at runtime use Rebroadcast, which respects the micro-batch
// lock step.
func (e *Engine) Broadcast(id string, value any) {
	e.driver.mu.Lock()
	b := e.driver.blocks[id]
	e.driver.blocks[id] = block{value: value, version: b.version + 1}
	e.driver.mu.Unlock()
	if e.instr != nil {
		e.instr.reg.Gauge("stream_broadcast_version", "engine", e.instr.name, "id", id).Set(int64(b.version + 1))
	}
	// Invalidate any existing worker caches (pre-Run this is a no-op).
	for _, w := range e.workers {
		delete(w.cache, id)
	}
}

// Rebroadcast queues a runtime update of a broadcast variable. It is
// applied at the next micro-batch barrier any worker reaches: the driver
// installs the new value under the same variable ID, every worker
// invalidates its locally cached copy at its own next barrier, and
// subsequent getValue() calls pull the fresh value. The stream never
// stops and no partition state is lost (§V-A).
func (e *Engine) Rebroadcast(id string, value any) {
	e.updMu.Lock()
	e.pending = append(e.pending, update{id: id, value: value})
	e.updMu.Unlock()
	e.ctrlSeq.Add(1)
}

// Send enqueues one input record onto its partition's worker queue
// (heartbeats fan a copy to every queue). It blocks when the queue is
// full (backpressure) and returns ErrClosed after Close. Rejected records
// are counted under stream_records_dropped_total with reason
// "send-after-close" (they do not enter Metrics.RecordsDropped, which
// only balances records the engine accepted).
func (e *Engine) Send(rec Record) error {
	select {
	case <-e.closed:
		return e.rejectClosed(1)
	default:
	}
	if rec.Heartbeat {
		if err := e.fanHeartbeat(rec); err != nil {
			return e.rejectClosed(1)
		}
		return nil
	}
	w := e.workers[e.cfg.Partitioner(rec, len(e.workers))]
	w.enq.Add(1)
	rec.seq = e.seqCtr.Add(1)
	select {
	case w.queue <- workerMsg{rec: rec}:
		return nil
	case <-e.closed:
		// The seq was assigned but the record never delivered: its
		// owner stays constrained below it, so the frontier can never
		// certify a prefix containing a rejected record. The engine is
		// closed; commits correctly stop at the rejection point.
		return e.rejectClosed(1)
	}
}

// fanHeartbeat delivers one copy of a heartbeat to every worker queue
// (§V-B custom partitioner), sharing a fan-out token so the heartbeat is
// counted once no matter how many partitions process it.
func (e *Engine) fanHeartbeat(rec Record) error {
	// Heartbeats carry no frontier seq (seq 0): the commit watermarks
	// compared against the frontier count forwarded log records only, so
	// a heartbeat must neither advance nor constrain the certified
	// prefix.
	if len(e.workers) == 1 {
		select {
		case e.workers[0].queue <- workerMsg{rec: rec}:
			return nil
		case <-e.closed:
			return ErrClosed
		}
	}
	fan := &hbFan{}
	fan.left.Store(int32(len(e.workers)))
	rec.fan = fan
	for i, w := range e.workers {
		select {
		case w.queue <- workerMsg{rec: rec}:
		case <-e.closed:
			// Interrupted mid-fan: void the token so the already-queued
			// copies run without counting a record the sender was told
			// was rejected, and retire the undelivered copies' shares.
			fan.void.Store(true)
			fan.left.Add(int32(-(len(e.workers) - i)))
			return ErrClosed
		}
	}
	return nil
}

// SendBatch enqueues a micro-batch of records, split at enqueue time into
// per-partition slices handed directly to the worker queues. Ownership of
// recs transfers to the engine, which recycles the backing array into the
// RecordBuffer pool — callers must not touch recs afterwards. Like Send
// it blocks on backpressure and returns ErrClosed after Close. If Close
// lands mid-delivery the batch may be partially accepted: slices already
// queued are processed and counted, the remainder is rejected under the
// send-after-close label.
func (e *Engine) SendBatch(recs []Record) error {
	if len(recs) == 0 {
		e.putRecordBuffer(recs)
		return nil
	}
	select {
	case <-e.closed:
		return e.rejectClosed(len(recs))
	default:
	}
	if len(e.workers) == 1 {
		// Single partition: the batch slice passes straight through to
		// the worker, no splitting. Frontier seqs are reserved as one
		// range (two atomic ops per batch, not per record); heartbeats
		// inside the batch stay seq-less.
		w := e.workers[0]
		n := uint64(0)
		for i := range recs {
			if !recs[i].Heartbeat {
				n++
			}
		}
		w.enq.Add(n)
		seq := e.seqCtr.Add(n) - n
		for i := range recs {
			if !recs[i].Heartbeat {
				seq++
				recs[i].seq = seq
			}
		}
		select {
		case e.batchSem <- struct{}{}:
		case <-e.closed:
			return e.rejectClosed(len(recs))
		}
		select {
		case w.queue <- workerMsg{batch: recs}:
			return nil
		case <-e.closed:
			<-e.batchSem
			return e.rejectClosed(len(recs))
		}
	}
	parts := e.getParts()
	rejected := 0
	for i := 0; i < len(recs); i++ {
		rec := recs[i]
		if !rec.Heartbeat {
			p := e.cfg.Partitioner(rec, len(e.workers))
			e.workers[p].enq.Add(1)
			rec.seq = e.seqCtr.Add(1)
			if parts[p] == nil {
				parts[p] = e.RecordBuffer()
			}
			parts[p] = append(parts[p], rec)
			continue
		}
		// A heartbeat inside the batch: per-queue FIFO is the ordering
		// guarantee, so everything before it must land in the worker
		// queues before its copies fan out.
		if u := e.flushParts(parts); u > 0 {
			rejected = u + len(recs) - i
			break
		}
		if err := e.fanHeartbeat(rec); err != nil {
			rejected = len(recs) - i
			break
		}
	}
	if rejected == 0 {
		rejected = e.flushParts(parts)
	}
	e.putParts(parts)
	e.putRecordBuffer(recs)
	if rejected > 0 {
		return e.rejectClosed(rejected)
	}
	return nil
}

// flushParts hands the accumulated per-partition slices to their worker
// queues, returning how many records went undelivered because Close
// interrupted the hand-off (undelivered slices are recycled).
func (e *Engine) flushParts(parts [][]Record) (undelivered int) {
	for p := range parts {
		buf := parts[p]
		if buf == nil {
			continue
		}
		parts[p] = nil
		if len(buf) == 0 || undelivered > 0 {
			undelivered += len(buf)
			e.putRecordBuffer(buf)
			continue
		}
		ok := false
		select {
		case e.batchSem <- struct{}{}:
			select {
			case e.workers[p].queue <- workerMsg{batch: buf}:
				ok = true
			case <-e.closed:
				<-e.batchSem
			}
		case <-e.closed:
		}
		if !ok {
			undelivered += len(buf)
			e.putRecordBuffer(buf)
		}
	}
	return undelivered
}

// RecordBuffer returns an empty record slice from the engine's arena for
// use with SendBatch. Steady-state batches cycle through the pool, so
// batching producers allocate no slices per batch. Fill it only by
// appending: the pool relies on a buffer being zero past its length.
func (e *Engine) RecordBuffer() []Record {
	if v := e.recPool.Get(); v != nil {
		return (*v.(*[]Record))[:0]
	}
	return make([]Record, 0, 256)
}

// putRecordBuffer recycles an absorbed batch slice. Its used prefix is
// zeroed so pooled arrays do not pin record payloads; the rest already
// is, because a pooled buffer is zero past its length and every buffer
// handed back was filled only by appending from length zero.
func (e *Engine) putRecordBuffer(recs []Record) {
	if cap(recs) == 0 {
		return
	}
	clear(recs)
	recs = recs[:0]
	e.recPool.Put(&recs)
}

// getParts returns a per-partition split scratch (len == Partitions, all
// slots nil) from the engine's pool.
func (e *Engine) getParts() [][]Record {
	if v := e.partsPool.Get(); v != nil {
		return *(v.(*[][]Record))
	}
	return make([][]Record, len(e.workers))
}

func (e *Engine) putParts(parts [][]Record) {
	for i := range parts {
		parts[i] = nil
	}
	e.partsPool.Put(&parts)
}

// rejectClosed accounts n records refused because the engine is closed.
func (e *Engine) rejectClosed(n int) error {
	if e.instr != nil {
		e.instr.droppedClosed.Add(uint64(n))
	}
	e.events.Record(obs.EventRecordsDropped, e.cfg.Name, "send after close", int64(n))
	return ErrClosed
}

// Close stops input. Run drains everything already sent, then returns.
func (e *Engine) Close() {
	e.once.Do(func() { close(e.closed) })
}

// Accepted returns the number of frontier seqs assigned so far — every
// non-heartbeat record accepted by Send/SendBatch. This is the unit of
// the commit frontier reported to BatchHook: a commit watermark taken
// from Accepted after a batch of sends is certain to be reached once
// those records (and everything accepted before them) retire.
// Heartbeats are seq-less by design, so watermarks must come from here,
// not from a sender-side count that includes them.
func (e *Engine) Accepted() uint64 {
	return e.seqCtr.Load()
}

// Metrics returns a snapshot of the engine counters.
func (e *Engine) Metrics() Metrics {
	e.metMu.Lock()
	m := e.metrics
	e.metMu.Unlock()
	m.BroadcastHits = e.bcHits.Load()
	m.BroadcastPulls = e.bcPulls.Load()
	return m
}

// Running reports whether the worker pool is currently executing — true
// between Run's entry and return. The ops-plane liveness probe reads it.
func (e *Engine) Running() bool { return e.running.Load() }

// BroadcastVersions reports the driver's current version of a broadcast
// variable and, per worker, the version that worker last pulled (0 if it
// has never pulled). The gap between the two is the version skew the
// ops-plane probe watches after a rebroadcast.
func (e *Engine) BroadcastVersions(id string) (driver uint64, workers []uint64) {
	e.driver.mu.RLock()
	driver = e.driver.blocks[id].version
	e.driver.mu.RUnlock()
	workers = make([]uint64, len(e.workers))
	for i, w := range e.workers {
		if v, ok := w.pulled.Load(id); ok {
			workers[i] = v.(uint64)
		}
	}
	return driver, workers
}

// StateMap returns partition p's state map. Safe to use from the operator
// (same partition) or after Run returns; concurrent external mutation
// during Run is the caller's responsibility.
func (e *Engine) StateMap(p int) (*StateMap, error) {
	if p < 0 || p >= len(e.workers) {
		return nil, fmt.Errorf("stream: no partition %d", p)
	}
	return e.workers[p].states, nil
}

// Run executes the worker pool until the context is cancelled or Close
// has been called and every queue is drained. Queued rebroadcasts are
// applied at micro-batch barriers.
func (e *Engine) Run(ctx context.Context) error {
	e.running.Store(true)
	defer e.running.Store(false)
	// Flush pending updates/inspections at exit so nothing blocks
	// forever when Run stops via context cancellation.
	defer e.flushCtrl()
	var wg sync.WaitGroup
	errs := make([]error, len(e.workers))
	// A panic escaping a worker (a sink or hook blowing up — operator
	// panics are contained per record) must surface to Run's caller so a
	// restart supervisor can recover it. The first panic wins; the abort
	// channel parks the other workers with their queues and scratch
	// intact, so the restarted Run resumes where this one stopped.
	abort := make(chan struct{})
	var panicOnce sync.Once
	var panicVal any
	for i, w := range e.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicVal = r
						close(abort)
					})
				}
			}()
			errs[i] = e.runWorker(ctx, w, abort)
		}(i, w)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWorker is one partition's persistent loop: collect a micro-batch
// from the partition's own queue, sync with the control plane, process,
// and hit the barrier — independent of every other partition's pace.
func (e *Engine) runWorker(ctx context.Context, w *worker, abort <-chan struct{}) error {
	for {
		batch, drained := e.collectWorker(ctx, w, abort)
		// Records requeued by the PanicHook go to the front of the next
		// batch, keeping redelivery close to the original attempt (and on
		// the same partition, preserving key affinity).
		if len(w.retries) > 0 {
			r := w.retries
			w.retries = nil
			batch = append(r, batch...)
		}
		select {
		case <-abort:
			// Another worker panicked and Run is unwinding toward its
			// supervisor. Park the collected records in the retry queue
			// (append to nil copies off the collect scratch) so the
			// restarted Run processes them; nothing is dropped.
			w.retries = append(w.retries, batch...)
			return nil
		default:
		}
		if err := ctx.Err(); err != nil {
			// The partially collected batch and anything still queued will
			// never run through the operator. Count them dropped so
			// conservation (accepted == processed + dropped) holds at
			// shutdown. Records Sent concurrently with the cancellation
			// may still race past this drain; orderly shutdown (Close
			// before cancel) is exact.
			e.dropWorker(w, batch)
			return err
		}

		// Model updates and inspections run at the barrier in a
		// serialized lock step (§V-A); the atomic compare keeps the
		// no-op case off the mutex.
		if e.ctrlSeq.Load() != w.seenSeq {
			e.syncWorker(w)
		}

		if len(batch) > 0 {
			e.processWorkerBatch(w, batch)
		} else {
			e.emptyBarrier()
		}
		// Zero the processed scratch so retained arrays don't pin this
		// batch's payloads until the slots happen to be overwritten.
		for i := range batch {
			batch[i] = Record{}
		}
		if drained && len(w.retries) == 0 {
			return nil
		}
	}
}

// collectWorker gathers one micro-batch from the worker's queue: up to
// MaxBatch records within BatchInterval (a batched hand-off may overshoot
// the cap by at most one producer batch). It reports drained=true when
// the engine is closed and the queue is empty. The returned slice is
// worker scratch, valid until the next collect call.
func (e *Engine) collectWorker(ctx context.Context, w *worker, abort <-chan struct{}) ([]Record, bool) {
	batch := w.batchBuf[:0]
	defer func() { w.batchBuf = batch[:0] }()
	timer := e.cfg.Clock.NewTimer(e.cfg.BatchInterval)
	defer timer.Stop()
	for len(batch) < e.cfg.MaxBatch {
		select {
		case msg := <-w.queue:
			batch = e.absorb(batch, msg)
		case <-timer.C():
			return batch, false
		case <-w.wake:
			// An inspection wants the barrier: close the window early.
			return batch, false
		case <-abort:
			return batch, false
		case <-ctx.Done():
			return batch, false
		case <-e.closed:
			// Drain whatever has been queued, then stop.
			for {
				select {
				case msg := <-w.queue:
					batch = e.absorb(batch, msg)
					if len(batch) >= e.cfg.MaxBatch {
						return batch, false
					}
				default:
					return batch, true
				}
			}
		}
	}
	return batch, false
}

// absorb appends one queue hand-off — a single record or a pooled batch
// slice — to the collection buffer, recycling batch slices.
func (e *Engine) absorb(batch []Record, msg workerMsg) []Record {
	if msg.batch == nil {
		return append(batch, msg.rec)
	}
	batch = append(batch, msg.batch...)
	e.putRecordBuffer(msg.batch)
	<-e.batchSem
	return batch
}

// dropWorker accounts a batch that will never be processed plus
// everything still buffered in the worker's queue (and any records parked
// in its retry queue) as RecordsDropped.
func (e *Engine) dropWorker(w *worker, batch []Record) {
	var dropped, copies uint64
	count := func(rec *Record) {
		if rec.seq != 0 {
			copies++
		}
		if rec.resolveCopy() {
			dropped++
		}
	}
	for i := range batch {
		count(&batch[i])
	}
	for i := range w.retries {
		count(&w.retries[i])
	}
	w.retries = nil
	for {
		select {
		case msg := <-w.queue:
			if msg.batch != nil {
				for i := range msg.batch {
					count(&msg.batch[i])
				}
				e.putRecordBuffer(msg.batch)
				<-e.batchSem
			} else {
				count(&msg.rec)
			}
			continue
		default:
		}
		break
	}
	// Dropped copies retire for frontier purposes (parity with the old
	// engine, where cancellation advanced Resolved past them): with its
	// pending count settled the worker stops constraining the frontier.
	w.done.Add(copies)
	if dropped == 0 {
		return
	}
	e.metMu.Lock()
	e.metrics.RecordsDropped += dropped
	e.metrics.Resolved += dropped
	e.metMu.Unlock()
	if e.instr != nil {
		e.instr.droppedAbandoned.Add(dropped)
	}
	e.events.Record(obs.EventRecordsDropped, e.cfg.Name, "abandoned at cancellation", int64(dropped))
}

// processWorkerBatch runs one partition's micro-batch through the
// operator serially, then takes the barrier lock to drain outputs and
// advance the shared commit frontier.
func (e *Engine) processWorkerBatch(w *worker, batch []Record) {
	start := e.cfg.Clock.Now()
	span := e.spans.Start(e.cfg.Name, w.procLabel, w.tid)
	c := &Context{engine: e, worker: w, batchStart: start}
	outs := w.outBuf[:0]
	retriesBefore := len(w.retries)
	var counted, seqCopies, lastSeq uint64
	for i := range batch {
		outs = append(outs, e.process(c, batch[i])...)
		// Heartbeat fan-out copies share one count: only the copy that
		// retires the token counts, so the subtraction below stays exact
		// in input-record units.
		if batch[i].resolveCopy() {
			counted++
		}
		// Frontier bookkeeping tracks seq-bearing records only; the
		// batch is in ascending seq order, so the running value is this
		// worker's high seq.
		if s := batch[i].seq; s != 0 {
			seqCopies++
			lastSeq = s
		}
	}
	span.End()
	requeued := uint64(len(w.retries) - retriesBefore)
	// This worker's frontier contribution: with requeued records the
	// oldest retry pins it (batches process in seq order, so everything
	// below the oldest retry is retired); otherwise the whole batch
	// retired through its last seq. An all-heartbeat batch leaves the
	// watermark untouched.
	fw := lastSeq
	if len(w.retries) > retriesBefore {
		fw = w.retries[retriesBefore].seq - 1
	}

	// The merged commit frontier: outputs drain inside the barrier lock
	// (sink calls stay serialized, each partition's outputs in order) and
	// only then do the shared Resolved count and this worker's frontier
	// watermark advance — a commit gated on this batch can never run
	// before its outputs have landed, and BatchHook frontiers are
	// monotone across partitions.
	e.barrierMu.Lock()
	retired := false
	retire := func() {
		retired = true
		e.metMu.Lock()
		e.metrics.Batches++
		e.metrics.Records += counted
		e.metrics.Resolved += counted - requeued
		e.metMu.Unlock()
		w.done.Add(seqCopies - requeued)
		if fw > 0 {
			w.front.Store(fw)
		}
	}
	func() {
		defer func() {
			// A sink or hook panic unwinds toward the restart supervisor:
			// release the barrier and retire the batch anyway (the paid
			// price is the pre-sink advance the old engine always had) so
			// conservation and the drain watermark survive the restart.
			if !retired {
				retire()
			}
			e.barrierMu.Unlock()
		}()
		if e.sink != nil && len(outs) > 0 {
			sinkSpan := e.spans.Start(e.cfg.Name, w.sinkLabel, w.tid)
			for _, o := range outs {
				e.sink(o)
			}
			sinkSpan.End()
		}
		retire()
		if e.cfg.BatchHook != nil {
			e.cfg.BatchHook(e.frontierLocked())
		}
		if e.cfg.OnBarrier != nil {
			e.cfg.OnBarrier()
		}
	}()

	if e.instr != nil {
		e.instr.batches.Inc()
		e.instr.records.Add(counted)
		e.instr.size.Observe(float64(len(batch)))
		e.instr.latency.Observe(e.cfg.Clock.Since(start).Seconds())
		// The worker is at its own barrier: its state map is quiescent.
		e.instr.entries[w.id].Set(int64(w.states.Len()))
	}
	for i := range outs {
		outs[i] = nil
	}
	w.outBuf = outs[:0]
}

// emptyBarrier fires the barrier hooks for a window that collected
// nothing, so a commit gated on a batch that resolved just before
// registration is flushed at the next barrier instead of waiting for
// traffic, and freshness gauges keep re-aging.
func (e *Engine) emptyBarrier() {
	if e.cfg.BatchHook == nil && e.cfg.OnBarrier == nil {
		return
	}
	e.barrierMu.Lock()
	if e.cfg.BatchHook != nil {
		e.cfg.BatchHook(e.frontierLocked())
	}
	if e.cfg.OnBarrier != nil {
		e.cfg.OnBarrier()
	}
	e.barrierMu.Unlock()
}

// frontierLocked (barrierMu held) certifies the resolved frontier: the
// highest seq S such that every accepted record with seq ≤ S is retired.
// A worker whose pending count is zero has retired everything it owns;
// one with pending work bounds S by its own watermark. Reading done
// before enq keeps a concurrent enqueue conservative (it can only make
// the worker look busier), and the high-water clamp keeps the reported
// value monotone when an idle worker with a stale watermark becomes busy
// again — retirement is irreversible, so an earlier certification stays
// true.
func (e *Engine) frontierLocked() uint64 {
	f := e.seqCtr.Load()
	for _, w := range e.workers {
		if w.done.Load() != w.enq.Load() {
			if wf := w.front.Load(); wf < f {
				f = wf
			}
		}
	}
	if f > e.frontierHi {
		e.frontierHi = f
	}
	return e.frontierHi
}

// process runs the operator on one record, containing panics so a
// poisonous record drops — or, when the PanicHook asks for it, retries —
// instead of killing the partition (and with it the zero-downtime
// guarantee).
func (e *Engine) process(c *Context, rec Record) (out []any) {
	defer func() {
		if r := recover(); r != nil {
			e.metMu.Lock()
			e.metrics.OperatorPanics++
			e.metMu.Unlock()
			if e.instr != nil {
				e.instr.panics.Inc()
			}
			e.events.Record(obs.EventWorkerCrash, e.cfg.Name,
				fmt.Sprintf("partition %d operator panic: %v", c.worker.id, r), 1)
			out = nil
			if !rec.Heartbeat && e.cfg.PanicHook != nil && e.cfg.PanicHook(c.worker.id, rec, r) {
				c.worker.retries = append(c.worker.retries, rec)
				e.metMu.Lock()
				e.metrics.Retried++
				e.metMu.Unlock()
				if e.instr != nil {
					e.instr.retried.Inc()
				}
			}
		}
	}()
	return e.proc(c, rec)
}

// Inspect runs fn against every partition's state map, each partition at
// its own next micro-batch barrier — the same serialized lock step model
// updates use — and blocks until all partitions have run it. It is the
// race-free way to observe partition state (open-event counts, state-map
// sizes) while the engine is live; invocations for different partitions
// are serialized but may interleave with other partitions' batches. If
// Run is not active the inspection executes immediately.
func (e *Engine) Inspect(fn func(partition int, states *StateMap)) {
	select {
	case <-e.closed:
		// Engine stopped (or never started): partitions are quiescent.
		for _, w := range e.workers {
			fn(w.id, w.states)
		}
		return
	default:
	}
	req := &inspectReq{
		fn:        fn,
		done:      make(chan struct{}),
		visited:   make([]bool, len(e.workers)),
		remaining: len(e.workers),
	}
	e.updMu.Lock()
	e.inspects = append(e.inspects, req)
	e.updMu.Unlock()
	e.ctrlSeq.Add(1)
	// Nudge parked workers so the inspection is served promptly even
	// when no traffic or timer would otherwise close their windows.
	for _, w := range e.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	select {
	case <-req.done:
	case <-e.closed:
		// Run exited (or is draining) without serving the request; cover
		// the partitions no worker visited. The completed flag keeps this
		// exactly-once against a racing worker barrier.
		e.updMu.Lock()
		if !req.completed {
			req.completed = true
			for i, r := range e.inspects {
				if r == req {
					e.inspects = append(e.inspects[:i], e.inspects[i+1:]...)
					break
				}
			}
			for _, w := range e.workers {
				if !req.visited[w.id] {
					fn(w.id, w.states)
				}
			}
			close(req.done)
		}
		e.updMu.Unlock()
	}
}

// syncWorker is the control-plane barrier: under updMu the worker
// installs any queued rebroadcasts (first arriver wins), serves queued
// inspections for its own partition, and collects its cache
// invalidations; outside the lock it applies them to its own cache.
func (e *Engine) syncWorker(w *worker) {
	e.updMu.Lock()
	seq := e.ctrlSeq.Load()
	e.installLocked()
	for i := 0; i < len(e.inspects); {
		req := e.inspects[i]
		if !req.visited[w.id] {
			req.visited[w.id] = true
			req.remaining--
			req.fn(w.id, w.states)
		}
		if req.remaining == 0 {
			req.completed = true
			close(req.done)
			e.inspects = append(e.inspects[:i], e.inspects[i+1:]...)
			continue
		}
		i++
	}
	inval := w.inval
	w.inval = nil
	e.updMu.Unlock()
	w.seenSeq = seq
	for _, id := range inval {
		delete(w.cache, id)
	}
}

// installLocked (updMu held) installs queued rebroadcasts: new driver
// blocks under the same IDs, with every worker's cached copy queued for
// invalidation at that worker's own barrier. Between the install and a
// worker's next barrier that worker may still serve the previous version
// — at most one batch of skew, the §V-A eventual-pull window the
// version-skew probe tolerates.
func (e *Engine) installLocked() {
	if len(e.pending) == 0 {
		return
	}
	pending := e.pending
	e.pending = nil
	start := e.cfg.Clock.Now()
	span := e.spans.Start(e.cfg.Name, "rebroadcast", e.driverTid)
	for _, u := range pending {
		e.driver.mu.Lock()
		b := e.driver.blocks[u.id]
		e.driver.blocks[u.id] = block{value: u.value, version: b.version + 1}
		e.driver.mu.Unlock()
		if e.instr != nil {
			e.instr.reg.Gauge("stream_broadcast_version", "engine", e.instr.name, "id", u.id).Set(int64(b.version + 1))
		}
		for _, w := range e.workers {
			w.inval = append(w.inval, u.id)
		}
		e.events.Record(obs.EventRebroadcastApplied, u.id, "installed at micro-batch barrier", int64(b.version+1))
	}
	span.End()
	e.metMu.Lock()
	e.metrics.UpdatesApplied += uint64(len(pending))
	e.metrics.UpdateBlocked += e.cfg.Clock.Since(start)
	e.metMu.Unlock()
	if e.instr != nil {
		e.instr.updates.Add(uint64(len(pending)))
	}
}

// flushCtrl completes the control plane at Run exit, when every worker is
// quiescent: pending rebroadcasts install, unserved inspections run over
// the partitions no worker visited, and worker cache invalidations apply.
func (e *Engine) flushCtrl() {
	e.updMu.Lock()
	e.installLocked()
	for _, req := range e.inspects {
		if req.completed {
			continue
		}
		req.completed = true
		for _, w := range e.workers {
			if !req.visited[w.id] {
				req.visited[w.id] = true
				req.fn(w.id, w.states)
			}
		}
		close(req.done)
	}
	e.inspects = nil
	for _, w := range e.workers {
		for _, id := range w.inval {
			delete(w.cache, id)
		}
		w.inval = nil
		w.seenSeq = e.ctrlSeq.Load()
	}
	e.updMu.Unlock()
}

// Context is the operator's view of its partition.
type Context struct {
	engine *Engine
	worker *worker

	// batchStart is the worker's pickup stamp for the micro-batch this
	// context is processing — taken once per batch, so operators can
	// close delivery-latency measurements without paying a per-record
	// clock read.
	batchStart time.Time
}

// Partition returns the partition index.
func (c *Context) Partition() int { return c.worker.id }

// BatchStart returns the engine's clock stamp from the moment this
// micro-batch was picked up for processing. All records of the batch
// share it.
func (c *Context) BatchStart() time.Time { return c.batchStart }

// States returns the partition's state map — the getParentStateMap()
// analog of §V-B, letting heartbeat handling enumerate open states without
// their keys.
func (c *Context) States() *StateMap { return c.worker.states }

// Broadcast returns the current value of a broadcast variable via the
// worker's getValue() protocol: local cache first, then a pull from the
// driver on a miss.
func (c *Context) Broadcast(id string) (any, bool) {
	if b, ok := c.worker.cache[id]; ok {
		c.engine.bcHits.Add(1)
		return b.value, true
	}
	c.engine.driver.mu.RLock()
	b, ok := c.engine.driver.blocks[id]
	c.engine.driver.mu.RUnlock()
	if !ok {
		return nil, false
	}
	c.worker.cache[id] = b
	c.worker.pulled.Store(id, b.version)
	c.engine.bcPulls.Add(1)
	return b.value, true
}

// StateMap is a per-partition keyed state store. Operators access it
// without locks (partition execution is serial); the map also supports
// enumeration so heartbeats can find states whose keys they do not know.
type StateMap struct {
	m map[string]any
}

// NewStateMap returns an empty state map.
func NewStateMap() *StateMap {
	return &StateMap{m: make(map[string]any)}
}

// Get returns the state under key.
func (s *StateMap) Get(key string) (any, bool) {
	v, ok := s.m[key]
	return v, ok
}

// Put stores state under key.
func (s *StateMap) Put(key string, value any) { s.m[key] = value }

// Delete removes the state under key.
func (s *StateMap) Delete(key string) { delete(s.m, key) }

// Len returns the number of stored states.
func (s *StateMap) Len() int { return len(s.m) }

// Range calls fn for every state until fn returns false.
func (s *StateMap) Range(fn func(key string, value any) bool) {
	for k, v := range s.m {
		if !fn(k, v) {
			return
		}
	}
}
