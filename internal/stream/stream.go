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
//   - Heartbeat records are fanned to every partition by the partitioner
//     (§V-B), regardless of key.
//
// Execution model: every partition is a persistent worker goroutine that
// owns a bounded input queue, its own micro-batch timer on the injected
// clock, its state map and broadcast cache, and its retry queue. Records
// are routed to worker queues at enqueue time (Send/SendBatch), and each
// worker batches at its own pace: a slow partition's queue fills while
// the others keep batching. Only multi-record slices share one engine-wide
// bound (batchSem), so a stalled worker holding its slots in parked slices
// blocks batched senders for every partition; single records take no
// slot. Progress is per partition too: each worker counts its queue
// hand-offs and publishes how many it has retired, and a Mark of those
// counts is what the commit gate and Drain wait on. The cross-partition
// synchronization that remains is a barrier lock serializing sink
// emission and the barrier hook, and a control lock serializing broadcast
// installs and state inspections.
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
	// Records/RecordsDropped count — so conservation stays exact in
	// input-record units.
	fan *hbFan
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
// A single queue for both keeps every hand-off strictly ordered per
// partition.
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
	// Clock is the engine's time source (default the wall clock). A fake
	// clock makes the micro-batch cadence manually drivable: batches
	// close when Advance crosses a worker's BatchInterval deadline.
	Clock clock.Clock
	// Name labels this engine's metrics (the "engine" label value);
	// default "stream". Several engines sharing one registry need
	// distinct names.
	Name string
	// Ops is the ops plane: the engine keeps its counters as stream_*
	// metrics in Ops.Metrics (Engine.Metrics reads them back), traces the
	// micro-batch hierarchy (per-partition process and sink lanes) in
	// Ops.Spans, and records rebroadcasts, operator panics and dropped
	// records in Ops.Events. Nil gives the engine a private registry and
	// no spans or events.
	Ops *obs.Ops
	// OnBarrier, when set, is called under the engine's barrier lock at
	// every micro-batch barrier — including empty ones — after the batch
	// (if any) has drained its outputs through the sink and its worker
	// has published what it retired. A hook that asks Reached about a
	// Mark taken earlier therefore learns at the first barrier that could
	// have covered it that every record behind the mark has been sunk, on
	// whichever partition was last. Firing at empty barriers too lets the
	// hook re-age freshness gauges on the batch cadence.
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
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.Name == "" {
		c.Name = "stream"
	}
	if c.Ops == nil {
		c.Ops = &obs.Ops{Metrics: metrics.NewRegistry()}
	}
}

// queueRecords is the total queued-record capacity, divided evenly across
// the per-worker queues (at least 64 each).
const queueRecords = 8192

// Metrics is a snapshot of the engine's counts, read back from the
// stream_* registry instruments and the engine's own atomics. Take it via
// Engine.Metrics.
type Metrics struct {
	// Batches and Records count processed micro-batches and records.
	// Batches are per-partition: each worker's closed collection window
	// counts one.
	Batches uint64
	Records uint64
	// UpdatesApplied counts rebroadcasts applied between batches.
	UpdatesApplied uint64
	// BroadcastPulls counts worker pulls from the driver (cache misses).
	BroadcastPulls uint64
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
	// Records is "processing attempts" and Records − Retried counts each
	// input record once, at its last attempt.
	Retried uint64
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("stream: engine closed")

// Engine is the micro-batch engine. Configure (operator, broadcasts)
// before Run. Send and SendBatch may be called while Run is active, from
// any number of goroutines.
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
	batchSem chan struct{}
	recPool  sync.Pool
	closed   chan struct{}
	once     sync.Once
	// partsPool holds SendBatch's per-partition split scratch
	// (*[][]Record, every slot nil between calls).
	partsPool sync.Pool

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
	// running reports whether Run is active. It flips under updMu —
	// before Run starts its workers and after they have all stopped — so
	// Broadcast and Inspect, which decide under updMu, touch worker-owned
	// caches and state maps directly only while no worker runs. The
	// liveness probe reads it through Running.
	running atomic.Bool

	// barrierMu serializes the barriers: each worker takes it at its own
	// micro-batch barrier to drain its outputs (sink calls stay
	// serialized, in per-partition order), publish what it retired and
	// run OnBarrier, so the hook's commits never interleave.
	barrierMu sync.Mutex

	// The counts Metrics reports that have no registry instrument:
	// broadcast pulls and the update lock-step time in nanoseconds.
	pulls   atomic.Uint64
	blocked atomic.Int64

	// instr holds the engine's registry instruments, which keep every
	// other count.
	instr engineInstr

	// spans/events are the ops-plane recorders (nil-safe). driverTid is
	// the span thread for driver-side work (rebroadcast installs);
	// workers carry their own tids.
	spans     *obs.SpanRecorder
	events    *obs.FlightRecorder
	driverTid int
}

// batchSizeBuckets are record-count bounds for the batch-size histogram
// (powers of four up to the default MaxBatch).
var batchSizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096}

// engineInstr holds the engine's registry handles, resolved once at
// construction so the per-batch cost is plain atomic updates.
type engineInstr struct {
	reg     *metrics.Registry
	batches *metrics.Counter
	records *metrics.Counter
	// Dropped records carry a reason label: "abandoned" for accepted
	// records discarded at cancellation (Metrics.RecordsDropped),
	// "send-after-close" for records rejected by Send with ErrClosed
	// (never accepted, so outside the conservation count).
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

func newEngineInstr(reg *metrics.Registry, name string, partitions int) engineInstr {
	in := engineInstr{
		reg:              reg,
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

	// Progress, in queued records (heartbeat copies included). enq counts
	// every record handed to this worker, bumped by the sender before the
	// hand-off enters the queue; done (worker-owned) counts those retired
	// after the sink, dropped ones included; retired publishes done for
	// Reached at each barrier where no record awaits a PanicHook retry.
	// The queue is FIFO, so retired always counts a prefix of it.
	enq     atomic.Uint64
	done    uint64
	retired atomic.Uint64

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
		instr:    newEngineInstr(cfg.Ops.Metrics, cfg.Name, cfg.Partitions),
		spans:    cfg.Ops.Spans,
		events:   cfg.Ops.Events,
	}
	e.partsPool.New = func() any {
		parts := make([][]Record, cfg.Partitions)
		return &parts
	}
	e.driverTid = e.spans.Thread(cfg.Name + " driver")
	queueCap := max(queueRecords/cfg.Partitions, 64)
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

// Metrics returns a snapshot of the engine counters.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Batches:        e.instr.batches.Value(),
		Records:        e.instr.records.Value(),
		UpdatesApplied: e.instr.updates.Value(),
		BroadcastPulls: e.pulls.Load(),
		UpdateBlocked:  time.Duration(e.blocked.Load()),
		OperatorPanics: e.instr.panics.Value(),
		RecordsDropped: e.instr.droppedAbandoned.Value(),
		Retried:        e.instr.retried.Value(),
	}
}

// Running reports whether the worker pool is currently executing — true
// between Run's entry and return. The ops-plane liveness probe reads it.
func (e *Engine) Running() bool { return e.running.Load() }

// Run executes the worker pool until the context is cancelled or Close
// has been called and every queue is drained. Broadcasts made while it
// runs are applied at micro-batch barriers.
func (e *Engine) Run(ctx context.Context) error {
	e.updMu.Lock()
	e.running.Store(true)
	e.updMu.Unlock()
	// Complete the control plane at exit, so nothing queued blocks
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

// dropWorker accounts a batch that will never be processed, plus
// everything still buffered in the worker's queue, as RecordsDropped.
func (e *Engine) dropWorker(w *worker, batch []Record) {
	for drained := false; !drained; {
		select {
		case msg := <-w.queue:
			batch = e.absorb(batch, msg)
		default:
			drained = true
		}
	}
	var dropped uint64
	for i := range batch {
		if batch[i].resolveCopy() {
			dropped++
		}
	}
	w.retire(uint64(len(batch)))
	if dropped == 0 {
		return
	}
	e.instr.droppedAbandoned.Add(dropped)
	e.events.Record(obs.EventRecordsDropped, e.cfg.Name, "abandoned at cancellation", int64(dropped))
}

// processWorkerBatch runs one partition's micro-batch through the
// operator serially, then takes the barrier lock to drain outputs,
// retire the batch and run OnBarrier.
func (e *Engine) processWorkerBatch(w *worker, batch []Record) {
	start := e.cfg.Clock.Now()
	span := e.spans.Start(e.cfg.Name, w.procLabel, w.tid)
	c := &Context{engine: e, worker: w, batchStart: start}
	outs := w.outBuf[:0]
	var counted uint64
	for i := range batch {
		outs = append(outs, e.process(c, batch[i])...)
		// Heartbeat fan-out copies share one count: only the copy that
		// retires the token counts, so Records stays exact in input-record
		// units.
		if batch[i].resolveCopy() {
			counted++
		}
	}
	span.End()
	// runWorker emptied the retry queue into this batch, so every retry
	// now queued is a record of it.
	requeued := uint64(len(w.retries))

	// Outputs drain inside the barrier lock (sink calls stay serialized,
	// each partition's outputs in order) and only then does the batch
	// retire, so a commit gated on it never runs before its outputs
	// have landed.
	e.barrierMu.Lock()
	retired := false
	retire := func() {
		retired = true
		e.instr.batches.Inc()
		e.instr.records.Add(counted)
		w.retire(uint64(len(batch)) - requeued)
	}
	func() {
		defer func() {
			// A sink or hook panic unwinds toward the restart supervisor:
			// release the barrier and retire the batch anyway (the paid
			// price is the pre-sink advance the old engine always had) so
			// conservation and the drain marks survive the restart.
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
		if e.cfg.OnBarrier != nil {
			e.cfg.OnBarrier()
		}
	}()

	e.instr.size.Observe(float64(len(batch)))
	e.instr.latency.Observe(e.cfg.Clock.Since(start).Seconds())
	// The worker is at its own barrier: its state map is quiescent.
	e.instr.entries[w.id].Set(int64(w.states.Len()))
	for i := range outs {
		outs[i] = nil
	}
	w.outBuf = outs[:0]
}

// emptyBarrier fires OnBarrier for a window that collected nothing, so a
// commit gated on a batch that retired just before registration is
// flushed at the next barrier instead of waiting for traffic, and
// freshness gauges keep re-aging.
func (e *Engine) emptyBarrier() {
	if e.cfg.OnBarrier == nil {
		return
	}
	e.barrierMu.Lock()
	defer e.barrierMu.Unlock()
	e.cfg.OnBarrier()
}

// retire counts n more of the worker's queued records as retired and,
// unless a record awaits a PanicHook retry, publishes the count. With a
// retry pending, records queued behind the retried one have retired but
// it has not, so done no longer counts a prefix of the queue.
func (w *worker) retire(n uint64) {
	w.done += n
	if len(w.retries) == 0 {
		w.retired.Store(w.done)
	}
}

// process runs the operator on one record, containing panics so a
// poisonous record drops — or, when the PanicHook asks for it, retries —
// instead of killing the partition (and with it the zero-downtime
// guarantee).
func (e *Engine) process(c *Context, rec Record) (out []any) {
	defer func() {
		if r := recover(); r != nil {
			e.instr.panics.Inc()
			e.events.Record(obs.EventWorkerCrash, e.cfg.Name,
				fmt.Sprintf("partition %d operator panic: %v", c.worker.id, r), 1)
			out = nil
			if !rec.Heartbeat && e.cfg.PanicHook != nil && e.cfg.PanicHook(c.worker.id, rec, r) {
				c.worker.retries = append(c.worker.retries, rec)
				e.instr.retried.Inc()
			}
		}
	}()
	return e.proc(c, rec)
}
