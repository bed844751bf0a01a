package bus

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// Consumer reads messages from one or more topics with per-partition
// offsets. Consumers created with the same group name share offsets, so
// each message is delivered to one member of the group. A Consumer is safe
// for concurrent use.
//
// Each group tracks two positions per partition:
//
//   - the read offset — how far polls have advanced; the next Poll
//     resumes here, and
//   - the committed offset — how far processing is durably acknowledged;
//     a crash/restart resumes here.
//
// By default the two move together: every poll commits what it returns
// (auto-commit, the pre-recovery behavior). A consumer that calls
// DisableAutoCommit takes over the committed position with explicit
// Commit calls after its batches are fully processed, turning redelivery
// of the read-but-uncommitted suffix into the at-least-once contract.
// Seek and Lag are expressed against the committed position — Lag is
// "messages a restart would have to reprocess", not "messages not yet
// polled" (see Consumer.Lag).
type Consumer struct {
	bus       *Bus
	group     *group
	groupName string
	topics    []string
	// ts holds the subscribed topics, parallel to topics.
	ts []*topic
	// manual disables auto-commit for polls issued through this member
	// of the group.
	manual bool
	// instr caches per-topic-partition consume instruments; guarded by
	// group.mu (only touched inside TryPoll).
	instr map[topicPartition]*consumeInstr
}

// consumeInstr is the per-(group, topic, partition) observability handle:
// messages consumed, the committed-offset lag behind the partition end,
// and the delivery delay (publish stamp → poll) of the newest message
// per poll batch.
type consumeInstr struct {
	consumed *metrics.Counter
	lag      *metrics.Gauge
	delay    *metrics.Histogram
}

type group struct {
	mu sync.Mutex
	// read is the poll frontier; committed is the durable acknowledgment
	// frontier. committed <= read except transiently across a Seek.
	read      map[topicPartition]int64
	committed map[topicPartition]int64
}

func newGroup() *group {
	return &group{
		read:      make(map[topicPartition]int64),
		committed: make(map[topicPartition]int64),
	}
}

type topicPartition struct {
	topic     string
	partition int
}

// NewConsumer creates a consumer in the named group subscribed to the
// given topics, starting at the group's committed offsets (zero for a new
// group).
func (b *Bus) NewConsumer(groupName string, topics ...string) (*Consumer, error) {
	if len(topics) == 0 {
		return nil, fmt.Errorf("bus: consumer group %q: no topics", groupName)
	}
	ts := make([]*topic, len(topics))
	for i, name := range topics {
		t, err := b.topic(name)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return &Consumer{
		bus:       b,
		group:     b.groupByName(groupName),
		groupName: groupName,
		topics:    topics,
		ts:        ts,
		instr:     make(map[topicPartition]*consumeInstr),
	}, nil
}

// groupByName returns (creating if needed) the named offset group.
func (b *Bus) groupByName(name string) *group {
	b.groupsMu.Lock()
	defer b.groupsMu.Unlock()
	g, ok := b.groups[name]
	if !ok {
		g = newGroup()
		b.groups[name] = g
	}
	return g
}

// DisableAutoCommit switches this consumer to manual commits: polls still
// advance the group's read offsets (so members do not re-read each
// other's in-flight batches), but the committed offsets move only on
// explicit Commit calls.
func (c *Consumer) DisableAutoCommit() {
	c.group.mu.Lock()
	c.manual = true
	c.group.mu.Unlock()
}

// Commit acknowledges processing of one partition up to (but excluding)
// offset — the position a restart should resume from. Commits never
// regress the committed offset; use Seek for deliberate rewinds.
func (c *Consumer) Commit(topicName string, partition int, offset int64) error {
	if _, err := c.bus.topic(topicName); err != nil {
		return err
	}
	tp := topicPartition{topicName, partition}
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	if offset > c.group.committed[tp] {
		c.group.committed[tp] = offset
	}
	if mi := c.instrFor(tp); mi != nil {
		mi.lag.Set(c.lagLocked(tp))
	}
	return nil
}

// Poll returns up to max pending messages across the subscription,
// blocking until at least one message is available or the context is done.
// Read offsets advance past everything returned; with auto-commit (the
// default) committed offsets follow.
func (c *Consumer) Poll(ctx context.Context, max int) ([]Message, error) {
	for {
		if msgs := c.TryPoll(max); len(msgs) > 0 {
			return msgs, nil
		}
		if err := c.Wait(ctx); err != nil {
			return nil, err
		}
	}
}

// Wait blocks until the subscription may have unread messages or ctx is
// done, without consuming anything: it returns at once when a subscribed
// partition holds a message past the group's read offset, and otherwise
// parks until a publish to any subscribed partition or a rewind of a read
// offset (Seek, SeekGroup, ResetReadToCommitted) wakes it. A caller that
// must mark itself busy before offsets move polls with TryPoll and parks
// here between empty polls.
func (c *Consumer) Wait(ctx context.Context) error {
	w := waiterPool.Get().(*waiter)
	for _, t := range c.ts {
		t.waiters.add(w)
	}
	var err error
	if !c.pending() {
		select {
		case <-w.ch:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	for _, t := range c.ts {
		t.waiters.remove(w)
	}
	// Unregistered, nothing sends any more: drop a late wake so the
	// pooled waiter starts empty.
	select {
	case <-w.ch:
	default:
	}
	waiterPool.Put(w)
	return err
}

// pending reports whether any subscribed partition holds a message past
// the group's read offset.
func (c *Consumer) pending() bool {
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	for i, t := range c.ts {
		for pi, p := range t.partitions {
			if p.end() > c.group.read[topicPartition{c.topics[i], pi}] {
				return true
			}
		}
	}
	return false
}

// TryPoll returns pending messages without blocking. Read offsets advance
// past everything returned; committed offsets follow unless auto-commit is
// disabled.
func (c *Consumer) TryPoll(max int) []Message {
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	var out []Message
	budget := max
	for _, topicName := range c.topics {
		t, err := c.bus.topic(topicName)
		if err != nil {
			continue
		}
		for pi, p := range t.partitions {
			if max > 0 && budget <= 0 {
				return out
			}
			tp := topicPartition{topicName, pi}
			msgs := p.tryRead(c.group.read[tp], budget)
			if len(msgs) == 0 {
				continue
			}
			c.group.read[tp] = msgs[len(msgs)-1].Offset + 1
			if !c.manual {
				c.group.committed[tp] = c.group.read[tp]
			}
			if mi := c.instrFor(tp); mi != nil {
				mi.consumed.Add(uint64(len(msgs)))
				mi.lag.Set(c.lagLocked(tp))
				// One delay observation per poll batch — the newest
				// message — keeps the histogram off the per-message
				// path while still bounding every message's delay from
				// above (the batch head waited at least as long).
				mi.delay.Observe(c.bus.clk.Now().Sub(msgs[len(msgs)-1].Time).Seconds())
			}
			out = append(out, msgs...)
			if max > 0 {
				budget -= len(msgs)
			}
		}
	}
	return out
}

// lagLocked computes the committed-offset lag for one partition. Caller
// holds group.mu.
func (c *Consumer) lagLocked(tp topicPartition) int64 {
	t, err := c.bus.topic(tp.topic)
	if err != nil || tp.partition >= len(t.partitions) {
		return 0
	}
	p := t.partitions[tp.partition]
	return p.end() - c.group.committed[tp]
}

// instrFor resolves (and caches) the consume instruments for a partition;
// nil when the bus is uninstrumented. Caller holds group.mu.
func (c *Consumer) instrFor(tp topicPartition) *consumeInstr {
	if mi, ok := c.instr[tp]; ok {
		return mi
	}
	c.bus.mu.RLock()
	reg := c.bus.reg
	c.bus.mu.RUnlock()
	if reg == nil {
		// Not cached: the bus may be instrumented later in wiring.
		return nil
	}
	labels := []string{"group", c.groupName, "topic", tp.topic, "partition", strconv.Itoa(tp.partition)}
	mi := &consumeInstr{
		consumed: reg.Counter("bus_consumed_total", labels...),
		lag:      reg.Gauge("bus_lag", labels...),
		delay:    reg.Histogram("bus_consume_delay_seconds", nil, labels...),
	}
	c.instr[tp] = mi
	return mi
}

// Seek rewinds (or forwards) the group's position for one partition —
// log replay (§II: stored logs "can also be used for future log
// replaying"). Seek moves the read and committed offsets together: the
// next poll resumes at offset, and a restart would too.
func (c *Consumer) Seek(topicName string, partition int, offset int64) error {
	t, err := c.bus.topic(topicName)
	if err != nil {
		return err
	}
	tp := topicPartition{topicName, partition}
	c.group.mu.Lock()
	c.group.read[tp] = offset
	c.group.committed[tp] = offset
	c.group.mu.Unlock()
	t.waiters.wake()
	c.bus.recorder().Record(obs.EventBusSeek, c.groupName,
		fmt.Sprintf("%s/%d seek", topicName, partition), offset)
	return nil
}

// Lag returns the total number of messages past the committed offsets
// across the subscription — the amount of work a crash/restart would
// replay. Under auto-commit this equals the unpolled backlog; under
// manual commits it also counts polled-but-unacknowledged messages, so
// Lag can be nonzero even when every message has been read.
func (c *Consumer) Lag() int64 {
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	var lag int64
	for _, topicName := range c.topics {
		t, err := c.bus.topic(topicName)
		if err != nil {
			continue
		}
		for pi, p := range t.partitions {
			lag += p.end() - c.group.committed[topicPartition{topicName, pi}]
		}
	}
	return lag
}

// ReadLag returns the total number of unpolled messages across the
// subscription — the backlog measured at the read frontier. The drain
// path uses it to decide the bus is empty even while commits trail.
func (c *Consumer) ReadLag() int64 {
	c.group.mu.Lock()
	defer c.group.mu.Unlock()
	var lag int64
	for _, topicName := range c.topics {
		t, err := c.bus.topic(topicName)
		if err != nil {
			continue
		}
		for pi, p := range t.partitions {
			lag += p.end() - c.group.read[topicPartition{topicName, pi}]
		}
	}
	return lag
}
