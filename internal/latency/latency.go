// Package latency is the freshness half of the ops plane: where the
// metrics registry counts *how much* work the pipeline did, this
// package measures *how stale* its answers are. It tracks two related
// signals on the injected clock:
//
//   - Per-stage latency histograms (latency_stage_seconds{stage=...}):
//     the line path is split at its hand-off points — intake admission
//     to bus publish, bus publish to partition operator pickup, parse,
//     sequence detection, and anomaly sink — so an operator can see
//     *where* time goes, not just that end-to-end latency grew.
//   - Freshness watermarks: per partition and per tenant, the newest
//     event-time and processing-time stamp that has fully cleared the
//     detector. The lag *age* (now − watermark) is republished as a
//     gauge at every micro-batch barrier, so a partition that silently
//     stops making progress shows monotonically growing lag instead of
//     a frozen throughput counter.
//
// Everything on the steady-state path is allocation-free: histogram
// handles and partition cells are resolved at construction, tenant
// cells once per tenant (cached by the caller), and watermark updates
// are single-writer atomic load/compare/store — the same contract the
// zero-alloc hot path (PR 5) enforces with AllocsPerRun budgets.
//
// The tracker also owns the end-to-end SLO burn counter
// (latency_slo_breach_total): CheckSLO increments it for every line
// whose e2e latency exceeded the configured threshold (loglens
// -slo-e2e-ms), giving alerting a counter to rate() instead of a
// percentile to threshold.
package latency

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/clock"
	"loglens/internal/metrics"
)

// Stage identifies one segment of the line path. Stages are recorded as
// deltas between adjacent hand-off points, so summing stage histograms
// approximates the e2e distribution (minus queueing between stages that
// no stamp brackets).
type Stage int

const (
	// StageIntake: network admission (listener enqueue) → bus publish.
	// Measures the intake queue wait plus pump scheduling.
	StageIntake Stage = iota
	// StageDeliver: bus publish → partition operator pickup. Measures
	// log-manager polling, forwarding, and micro-batch collection — the
	// batching delay an operator tunes with -batch-interval.
	StageDeliver
	// StageParse: operator pickup → parse complete (template matched or
	// line declared unparsed).
	StageParse
	// StageDetect: parse complete → sequence/volume detection complete.
	StageDetect
	// StageSink: line arrival → its anomaly verdict landed in the sink.
	// Only anomalous lines reach this stage; it measures verdict
	// staleness, the paper's real-time claim in one number.
	StageSink
	numStages
)

// stageNames index Stage → label value.
var stageNames = [numStages]string{"intake", "deliver", "parse", "detect", "sink"}

// Name returns the stage's metric label value.
func (s Stage) Name() string { return stageNames[s] }

// Stages lists every stage label in pipeline order, for dashboards that
// want a stable iteration order.
func Stages() []string { return stageNames[:] }

// StageBuckets are the histogram bounds for per-stage deltas: finer than
// metrics.DefBuckets at the microsecond end (a parse stage runs in
// single-digit microseconds) while still reaching multi-second tails
// for a stalled partition.
var StageBuckets = []float64{
	0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Cell holds the freshness watermarks for one partition or tenant: the
// newest event-time and processing-time (arrival) stamps that have
// cleared the detector, plus the lag-age gauges republished at every
// barrier. Watermarks only move forward (max semantics), so late or
// reordered lines never make a partition look fresher than it is.
//
// Partition cells are updated by exactly one worker goroutine; tenant
// cells may be shared when a tenant's sources hash to different
// partitions, so Note uses atomic loads and stores (a lost race between
// two near-equal maxima is harmless — both are valid watermarks).
type Cell struct {
	event atomic.Int64 // newest event-time stamp, unixnanos (0 = no data)
	proc  atomic.Int64 // newest processing-time stamp, unixnanos (0 = no data)

	eventLag *metrics.Gauge
	procLag  *metrics.Gauge

	// Pad to a cache line so adjacent partition cells in the tracker's
	// slice don't false-share under per-partition worker updates.
	_ [32]byte
}

// Note advances the cell's watermarks to the given stamps if they are
// newer. Allocation-free; called once per line on the hot path.
func (c *Cell) Note(eventNanos, procNanos int64) {
	if c == nil {
		return
	}
	if eventNanos > c.event.Load() {
		c.event.Store(eventNanos)
	}
	if procNanos > c.proc.Load() {
		c.proc.Store(procNanos)
	}
}

// Tracker is the pipeline-wide latency/freshness instrument. A nil
// *Tracker is a valid disabled tracker: every method no-ops, so a
// caller may hold a plain pointer without nil checks of its own.
type Tracker struct {
	clk      clock.Clock
	sloNanos int64

	stages   [numStages]*metrics.Histogram
	breaches *metrics.Counter

	// ingest is the admission watermark: the newest bus-publish stamp
	// the log manager has forwarded, regardless of whether the line has
	// cleared the detector yet. The gap between ingest and the partition
	// proc watermarks is work in flight.
	ingest atomic.Int64

	parts []Cell

	mu      sync.Mutex
	tenants map[string]*Cell

	reg *metrics.Registry
}

// New builds a tracker on reg with one watermark cell per partition.
// slo is the end-to-end latency threshold for latency_slo_breach_total;
// zero disables breach counting but keeps the histograms.
func New(reg *metrics.Registry, clk clock.Clock, partitions int, slo time.Duration) *Tracker {
	if clk == nil {
		clk = clock.New()
	}
	if partitions <= 0 {
		partitions = 1
	}
	t := &Tracker{
		clk:      clk,
		sloNanos: int64(slo),
		breaches: reg.Counter("latency_slo_breach_total"),
		parts:    make([]Cell, partitions),
		tenants:  make(map[string]*Cell),
		reg:      reg,
	}
	for i := range t.stages {
		t.stages[i] = reg.Histogram("latency_stage_seconds", StageBuckets, "stage", stageNames[i])
	}
	for i := range t.parts {
		p := strconv.Itoa(i)
		t.parts[i].eventLag = reg.Gauge("freshness_event_lag_ms", "partition", p)
		t.parts[i].procLag = reg.Gauge("freshness_proc_lag_ms", "partition", p)
	}
	return t
}

// Observe records one stage delta. Negative deltas (clock skew between
// stamp points cannot happen on one injected clock, but belt and
// braces) clamp to zero. Allocation-free.
func (t *Tracker) Observe(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.stages[s].Observe(d.Seconds())
}

// CheckSLO counts an SLO breach if the end-to-end latency exceeded the
// configured threshold. Allocation-free.
func (t *Tracker) CheckSLO(e2e time.Duration) {
	if t == nil || t.sloNanos <= 0 {
		return
	}
	if int64(e2e) > t.sloNanos {
		t.breaches.Inc()
	}
}

// SLO returns the configured end-to-end threshold (0 = disabled).
func (t *Tracker) SLO() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.sloNanos)
}

// Partition returns partition i's watermark cell. The caller indexes
// with the stream context's partition id, which is always in range.
func (t *Tracker) Partition(i int) *Cell {
	if t == nil {
		return nil
	}
	return &t.parts[i]
}

// Tenant resolves (registering if needed) the named tenant's watermark
// cell. Callers cache the returned pointer in per-source state so the
// hot path never takes the tracker mutex.
func (t *Tracker) Tenant(name string) *Cell {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.tenants[name]
	if !ok {
		c = &Cell{
			eventLag: t.reg.Gauge("freshness_event_lag_ms", "tenant", name),
			procLag:  t.reg.Gauge("freshness_proc_lag_ms", "tenant", name),
		}
		t.tenants[name] = c
	}
	return c
}

// NoteIngest advances the admission watermark. Called by the log
// manager with the newest arrival stamp of each forwarded poll batch.
func (t *Tracker) NoteIngest(arrival time.Time) {
	if t == nil {
		return
	}
	n := arrival.UnixNano()
	if n > t.ingest.Load() {
		t.ingest.Store(n)
	}
}

// IngestWatermark returns the admission watermark (zero time = no data).
func (t *Tracker) IngestWatermark() time.Time {
	if t == nil {
		return time.Time{}
	}
	return stampTime(t.ingest.Load())
}

// Refresh recomputes every lag-age gauge from the current clock. The
// stream engine calls it at every micro-batch barrier — each partition
// worker's own, including empty ones, serialized by the engine's barrier
// lock — so lag ages keep growing while a partition is idle or stuck
// instead of freezing at their last value. Allocation-free for a fixed
// tenant set.
func (t *Tracker) Refresh() {
	if t == nil {
		return
	}
	now := t.clk.Now().UnixNano()
	for i := range t.parts {
		t.parts[i].refresh(now)
	}
	t.mu.Lock()
	for _, c := range t.tenants {
		c.refresh(now)
	}
	t.mu.Unlock()
}

// refresh republishes one cell's lag gauges. A cell that has seen no
// data reports -1, distinguishing "never produced" from "fresh".
func (c *Cell) refresh(nowNanos int64) {
	c.eventLag.Set(lagMillis(nowNanos, c.event.Load()))
	c.procLag.Set(lagMillis(nowNanos, c.proc.Load()))
}

// lagMillis converts a watermark to a lag age in whole milliseconds,
// clamped at zero; -1 means no watermark yet.
func lagMillis(nowNanos, wmNanos int64) int64 {
	if wmNanos == 0 {
		return -1
	}
	ms := (nowNanos - wmNanos) / int64(time.Millisecond)
	if ms < 0 {
		return 0
	}
	return ms
}

// stampTime converts a unixnano watermark back to a time.Time,
// preserving the zero value.
func stampTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// PartitionWatermark is one row of the watermark table surfaced on
// GET /api/latency.
type PartitionWatermark struct {
	Partition  int       `json:"partition"`
	EventTime  time.Time `json:"eventTime"`
	ProcTime   time.Time `json:"procTime"`
	EventLagMs int64     `json:"eventLagMs"`
	ProcLagMs  int64     `json:"procLagMs"`
}

// TenantWatermark is the per-tenant analogue of PartitionWatermark.
type TenantWatermark struct {
	Tenant     string    `json:"tenant"`
	EventTime  time.Time `json:"eventTime"`
	ProcTime   time.Time `json:"procTime"`
	EventLagMs int64     `json:"eventLagMs"`
	ProcLagMs  int64     `json:"procLagMs"`
}

// Watermarks snapshots the watermark table with lag ages computed
// against the clock now — fresher than the barrier-cadence gauges, for
// the dashboard endpoint. Tenants are sorted by name.
func (t *Tracker) Watermarks() ([]PartitionWatermark, []TenantWatermark) {
	if t == nil {
		return nil, nil
	}
	now := t.clk.Now().UnixNano()
	parts := make([]PartitionWatermark, len(t.parts))
	for i := range t.parts {
		ev, pr := t.parts[i].event.Load(), t.parts[i].proc.Load()
		parts[i] = PartitionWatermark{
			Partition:  i,
			EventTime:  stampTime(ev),
			ProcTime:   stampTime(pr),
			EventLagMs: lagMillis(now, ev),
			ProcLagMs:  lagMillis(now, pr),
		}
	}
	t.mu.Lock()
	names := make([]string, 0, len(t.tenants))
	for name := range t.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	tenants := make([]TenantWatermark, 0, len(names))
	for _, name := range names {
		c := t.tenants[name]
		ev, pr := c.event.Load(), c.proc.Load()
		tenants = append(tenants, TenantWatermark{
			Tenant:     name,
			EventTime:  stampTime(ev),
			ProcTime:   stampTime(pr),
			EventLagMs: lagMillis(now, ev),
			ProcLagMs:  lagMillis(now, pr),
		})
	}
	t.mu.Unlock()
	return parts, tenants
}

// Breaches returns the SLO burn counter's current value.
func (t *Tracker) Breaches() uint64 {
	if t == nil {
		return 0
	}
	return t.breaches.Value()
}
