// Package chaos is the deterministic fault-injection layer of the LogLens
// test substrate. Production log pipelines treat delayed, duplicated,
// reordered, and dropped messages — and crashing workers — as the normal
// case; the paper's guarantees (§V-A zero-downtime rebroadcast, §V-B
// timely heartbeat expiry) must hold under exactly those conditions. This
// package manufactures them on demand: a seeded Config describes a fault
// plan, Producer wraps the bus publish path (drop, duplicate, delay,
// reorder within a window), Consumer wraps the bus consume path
// (crash/restart redelivery), and WrapOperator wraps a stream operator
// (worker crash mid-micro-batch, contained by the engine's panic
// isolation).
//
// Determinism is the design center. Per-message fault decisions are pure
// hashes of (seed, role, message coordinates), so they do not depend on
// goroutine interleaving; magnitude draws (delay durations, reorder
// permutations) come from a per-wrapper rand.Rand consumed in call order.
// Same seed, same call sequence → byte-identical fault schedule, which
// Schedule exposes for reproducibility assertions. Combined with
// clock.Fake the whole fault timeline is replayable: delays are released
// when the fake clock crosses their due times.
package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/stream"
)

// Config is a seeded fault plan. Probabilities are in [0,1]; zero values
// disable the corresponding fault, so the zero Config injects nothing.
type Config struct {
	// Seed selects the fault schedule. Two wrappers built from equal
	// Configs make identical decisions for identical call sequences.
	Seed int64

	// Drop is the probability a published message is swallowed.
	Drop float64
	// Duplicate is the probability a published message is delivered
	// twice.
	Duplicate float64
	// Delay is the probability a published message is held back until
	// the clock passes a due time drawn uniformly from (0, MaxDelay].
	Delay float64
	// MaxDelay bounds injected delays (default 100ms).
	MaxDelay time.Duration
	// ReorderWindow buffers messages and releases each full window in a
	// seeded permuted order — reordering bounded by the window size.
	// Values <= 1 disable reordering.
	ReorderWindow int

	// Crash is the per-record probability that a wrapped stream operator
	// panics before processing — a worker crash mid-micro-batch. The
	// engine contains the panic; the partition (and its state map)
	// survives, the record is dropped.
	Crash float64

	// Redeliver is the per-poll probability that a wrapped consumer,
	// after delivering a batch, seeks back RedeliverDepth messages on
	// one partition it just read — a consumer crash/restart replaying
	// uncommitted work (at-least-once delivery).
	Redeliver float64
	// RedeliverDepth is how far a redelivery rewinds (default 3).
	RedeliverDepth int
}

func (c *Config) setDefaults() {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 100 * time.Millisecond
	}
	if c.RedeliverDepth <= 0 {
		c.RedeliverDepth = 3
	}
}

// Hash roles keep the per-fault decision streams independent: whether
// message 7 is dropped does not change whether it is also delayed.
const (
	roleDrop uint64 = iota + 1
	roleDup
	roleDelay
	roleCrash
	roleRedeliver
)

// splitmix64 is the SplitMix64 finalizer — a strong, cheap bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// chance makes the deterministic per-message decision for one fault role:
// a pure function of (seed, role, a, b), independent of call order.
func (c *Config) chance(p float64, role, a, b uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := splitmix64(splitmix64(splitmix64(uint64(c.Seed)^role)+a) + b)
	return float64(h>>11)/float64(1<<53) < p
}

// magnitude derives a deterministic uniform value in (0,1] for sizing a
// fault (delay duration, rewind depth).
func (c *Config) magnitude(role, a, b uint64) float64 {
	h := splitmix64(splitmix64(splitmix64(uint64(c.Seed)^role^0xD1CE)+a) + b)
	return (float64(h>>11) + 1) / float64(1<<53)
}

// perm returns the seeded permutation of [0,n) for the k-th released
// window — Fisher-Yates driven by the hash stream, so it depends only on
// (seed, k, n).
func (c *Config) perm(k uint64, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		h := splitmix64(splitmix64(uint64(c.Seed)^0x5EED0EDE+k) + uint64(i))
		j := int(h % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Stats counts injected faults.
type Stats struct {
	// Published counts Publish calls seen by a Producer.
	Published uint64
	// Delivered counts messages actually handed to the bus (duplicates
	// included, drops excluded).
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	Delayed    uint64
	// Windows counts reorder windows released in permuted order.
	Windows uint64
	// Crashes counts injected operator panics.
	Crashes uint64
	// Redeliveries counts injected consumer rewinds.
	Redeliveries uint64
}

// Producer wraps the publish path of one topic with the fault plan. Use
// one Producer per publishing goroutine; a Producer is mutex-guarded, but
// the deterministic schedule assumes publishes arrive in a fixed order.
type Producer struct {
	mu      sync.Mutex
	bus     bus.Broker
	topic   string
	clk     clock.Clock
	cfg     Config
	seq     uint64 // input sequence number, the coordinate of every decision
	windows uint64
	held    []heldMsg // delay-faulted, waiting for their due time
	window  []heldMsg // reorder buffer, released permuted when full
	stats   Stats
	sched   []string
}

type heldMsg struct {
	seq     uint64
	due     time.Time
	key     string
	value   []byte
	headers map[string]string
}

// NewProducer wraps publishing to topic on b with the fault plan cfg,
// timing delays against clk.
func NewProducer(b bus.Broker, topic string, clk clock.Clock, cfg Config) *Producer {
	cfg.setDefaults()
	if clk == nil {
		clk = clock.New()
	}
	return &Producer{bus: b, topic: topic, clk: clk, cfg: cfg}
}

// Publish routes one message through the fault plan. The returned error
// is the first bus error encountered while releasing messages (dropped
// messages return nil: the fault is the point).
func (p *Producer) Publish(key string, value []byte, headers map[string]string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	seq := p.seq
	p.seq++
	p.stats.Published++

	if err := p.releaseDueLocked(); err != nil {
		return err
	}

	if p.cfg.chance(p.cfg.Drop, roleDrop, seq, 0) {
		p.stats.Dropped++
		p.sched = append(p.sched, fmt.Sprintf("%d:drop", seq))
		return nil
	}
	copies := 1
	if p.cfg.chance(p.cfg.Duplicate, roleDup, seq, 0) {
		copies = 2
		p.stats.Duplicated++
		p.sched = append(p.sched, fmt.Sprintf("%d:dup", seq))
	}
	if p.cfg.chance(p.cfg.Delay, roleDelay, seq, 0) {
		d := time.Duration(p.cfg.magnitude(roleDelay, seq, 1) * float64(p.cfg.MaxDelay))
		if d <= 0 {
			d = time.Nanosecond
		}
		p.stats.Delayed++
		p.sched = append(p.sched, fmt.Sprintf("%d:delay=%v", seq, d))
		due := p.clk.Now().Add(d)
		for i := 0; i < copies; i++ {
			p.held = append(p.held, heldMsg{seq: seq, due: due, key: key, value: value, headers: headers})
		}
		return nil
	}
	for i := 0; i < copies; i++ {
		if err := p.enqueueLocked(heldMsg{seq: seq, key: key, value: value, headers: headers}); err != nil {
			return err
		}
	}
	return nil
}

// Release moves every delay-held message whose due time has passed into
// the delivery path. Call it after advancing a fake clock; under a real
// clock it also runs on every Publish.
func (p *Producer) Release() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.releaseDueLocked()
}

// Flush force-releases everything still held — remaining delays and the
// partial reorder window — ending the fault timeline. Call it before
// asserting on consumer-side totals.
func (p *Producer) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	sortHeld(p.held)
	for _, m := range p.held {
		if err := p.enqueueLocked(m); err != nil {
			return err
		}
	}
	p.held = nil
	return p.emitWindowLocked(len(p.window))
}

// Stats returns a snapshot of the fault counters.
func (p *Producer) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Schedule returns the fault schedule so far, one entry per injected
// fault in decision order — the reproducibility witness: equal seeds and
// equal publish sequences yield equal schedules.
func (p *Producer) Schedule() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.sched...)
}

func (p *Producer) releaseDueLocked() error {
	if len(p.held) == 0 {
		return nil
	}
	now := p.clk.Now()
	var due, rest []heldMsg
	for _, m := range p.held {
		if !m.due.After(now) {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	if len(due) == 0 {
		return nil
	}
	p.held = rest
	sortHeld(due)
	for _, m := range due {
		if err := p.enqueueLocked(m); err != nil {
			return err
		}
	}
	return nil
}

// sortHeld orders released messages by due time, ties by input sequence —
// the deterministic release order.
func sortHeld(ms []heldMsg) {
	sort.SliceStable(ms, func(i, j int) bool {
		if !ms[i].due.Equal(ms[j].due) {
			return ms[i].due.Before(ms[j].due)
		}
		return ms[i].seq < ms[j].seq
	})
}

// enqueueLocked routes a message through the reorder window (or straight
// to the bus when reordering is disabled).
func (p *Producer) enqueueLocked(m heldMsg) error {
	if p.cfg.ReorderWindow <= 1 {
		return p.publishLocked(m)
	}
	p.window = append(p.window, m)
	if len(p.window) < p.cfg.ReorderWindow {
		return nil
	}
	return p.emitWindowLocked(len(p.window))
}

// emitWindowLocked releases the first n buffered messages in a seeded
// permuted order.
func (p *Producer) emitWindowLocked(n int) error {
	if n == 0 {
		return nil
	}
	batch := p.window[:n]
	p.window = p.window[n:]
	k := p.windows
	p.windows++
	if p.cfg.ReorderWindow > 1 {
		p.stats.Windows++
		p.sched = append(p.sched, fmt.Sprintf("w%d:perm%v", k, p.cfg.perm(k, n)))
	}
	order := p.cfg.perm(k, n)
	for _, i := range order {
		if err := p.publishLocked(batch[i]); err != nil {
			return err
		}
	}
	return nil
}

func (p *Producer) publishLocked(m heldMsg) error {
	_, _, err := p.bus.Publish(p.topic, m.key, m.value, m.headers)
	if err == nil {
		p.stats.Delivered++
	}
	return err
}

// WrapOperator wraps a stream operator with seeded worker crashes: before
// processing, the wrapper may panic — the engine's panic containment
// turns that into a dropped record on a surviving partition, which is
// exactly a worker crash/restart mid-micro-batch (state maps and the
// zero-downtime guarantee must hold through it). The crash decision is a
// pure hash of (seed, partition, per-partition record index), so it is
// deterministic no matter how partitions interleave.
func WrapOperator(cfg Config, stats *Stats, proc stream.ProcessFunc) stream.ProcessFunc {
	cfg.setDefaults()
	var mu sync.Mutex
	indexes := make(map[int]uint64)
	return func(ctx *stream.Context, rec stream.Record) []any {
		mu.Lock()
		idx := indexes[ctx.Partition()]
		indexes[ctx.Partition()] = idx + 1
		crash := cfg.chance(cfg.Crash, roleCrash, uint64(ctx.Partition()), idx)
		if crash {
			stats.Crashes++
		}
		mu.Unlock()
		if crash {
			panic(fmt.Sprintf("chaos: injected worker crash (partition %d, record %d)", ctx.Partition(), idx))
		}
		return proc(ctx, rec)
	}
}

// Consumer wraps a bus consumer with crash/restart redelivery faults and
// records every delivered (topic, partition, offset) so scenarios can
// assert delivery invariants: without injected redelivery, offsets within
// a partition must never regress; with it, regressions happen only at
// injected rewind points and every message is still delivered at least
// once.
type Consumer struct {
	mu    sync.Mutex
	c     bus.Reader
	cfg   Config
	polls uint64
	// frontier is the highest delivered offset per partition.
	frontier map[partitionKey]int64
	// floors tracks how far an injected rewind may legitimately re-read.
	floors map[partitionKey]int64
	stats  Stats
	sched  []string
	// violations records offsets that regressed without a rewind.
	violations []string
}

type partitionKey struct {
	topic     string
	partition int
}

// NewConsumer wraps c with the fault plan cfg.
func NewConsumer(c bus.Reader, cfg Config) *Consumer {
	cfg.setDefaults()
	return &Consumer{
		c:        c,
		cfg:      cfg,
		frontier: make(map[partitionKey]int64),
		floors:   make(map[partitionKey]int64),
	}
}

// TryPoll polls without blocking, checks the delivery invariant, and may
// inject a crash/restart rewind for the next poll.
func (cc *Consumer) TryPoll(max int) []bus.Message {
	msgs := cc.c.TryPoll(max)
	cc.observe(msgs)
	return msgs
}

// observe verifies monotonicity against the recorded frontier and floors,
// then possibly injects a rewind.
func (cc *Consumer) observe(msgs []bus.Message) {
	if len(msgs) == 0 {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	poll := cc.polls
	cc.polls++
	for _, m := range msgs {
		k := partitionKey{m.Topic, m.Partition}
		front, seen := cc.frontier[k]
		if seen && m.Offset <= front {
			// Regression: legitimate only above the rewind floor.
			if floor, ok := cc.floors[k]; !ok || m.Offset < floor {
				cc.violations = append(cc.violations, fmt.Sprintf(
					"%s/%d: offset %d delivered after frontier %d without a rewind",
					m.Topic, m.Partition, m.Offset, front))
			}
		}
		if !seen || m.Offset > front {
			cc.frontier[k] = m.Offset
		}
	}
	if cc.cfg.chance(cc.cfg.Redeliver, roleRedeliver, poll, 0) {
		// Crash/restart: rewind one partition we just read by up to
		// RedeliverDepth messages.
		m := msgs[int(splitmix64(uint64(cc.cfg.Seed)+poll)%uint64(len(msgs)))]
		k := partitionKey{m.Topic, m.Partition}
		depth := int64(cc.cfg.magnitude(roleRedeliver, poll, 1)*float64(cc.cfg.RedeliverDepth)) + 1
		if depth > int64(cc.cfg.RedeliverDepth) {
			depth = int64(cc.cfg.RedeliverDepth)
		}
		target := cc.frontier[k] + 1 - depth
		if target < 0 {
			target = 0
		}
		if err := cc.c.Seek(m.Topic, m.Partition, target); err == nil {
			cc.stats.Redeliveries++
			cc.floors[k] = target
			cc.sched = append(cc.sched, fmt.Sprintf("p%d:rewind %s/%d->%d", poll, m.Topic, m.Partition, target))
		}
	}
}

// Stats returns a snapshot of the fault counters.
func (cc *Consumer) Stats() Stats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.stats
}

// Schedule returns the injected-rewind schedule.
func (cc *Consumer) Schedule() []string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return append([]string(nil), cc.sched...)
}

// Violations returns every offset regression not explained by an injected
// rewind — the consumer-group-offsets-never-regress invariant witness.
func (cc *Consumer) Violations() []string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return append([]string(nil), cc.violations...)
}
