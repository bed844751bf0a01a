// Package bus is the in-process message bus LogLens ships logs and
// control messages over — the substitution for Apache Kafka (§II uses
// Kafka "for shipping logs and communicating among different components").
// It preserves the Kafka semantics the system depends on: named topics
// split into partitions, strict ordering and monotone offsets within a
// partition, key-hash partitioning, consumer groups with shared offsets,
// and offset seeking for replay.
package bus

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"loglens/internal/clock"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// Message is one bus record.
type Message struct {
	// Topic and Partition locate the message; Offset is its position
	// within the partition.
	Topic     string
	Partition int
	Offset    int64
	// Key routes the message to a partition (same key, same partition).
	Key string
	// Value is the payload.
	Value []byte
	// Headers carry optional metadata (e.g. the heartbeat tag of §V-B).
	Headers map[string]string
	// Time is the publish wall-clock time.
	Time time.Time
}

// Bus is the broker. It is safe for concurrent use.
type Bus struct {
	clk clock.Clock

	mu     sync.RWMutex
	topics map[string]*topic
	reg    *metrics.Registry
	events *obs.FlightRecorder

	groupsMu sync.Mutex
	groups   map[string]*group
}

type topic struct {
	name       string
	partitions []*partition
	rr         int // round-robin cursor for keyless publishes
	// waiters parks the consumers blocked in Wait or Poll on this topic.
	waiters notifier
}

// logChunkShift sizes the partition log's chunks (1<<logChunkShift
// messages each). A chunked append-only log never moves published
// messages: growth allocates a fresh chunk instead of doubling one huge
// slice, so a hot topic does not re-copy (and re-zero) its whole history
// every time the backing array fills.
const (
	logChunkShift = 10
	logChunkSize  = 1 << logChunkShift
	logChunkMask  = logChunkSize - 1
)

type partition struct {
	mu sync.Mutex
	// chunks is the partition log: offset o lives at
	// chunks[o>>logChunkShift][o&logChunkMask], and length is the next
	// offset to be assigned.
	chunks [][]Message
	length int64
	// produced counts appends; nil until the bus is instrumented.
	produced *metrics.Counter
}

// appendLocked appends one message to the chunked log. Caller holds p.mu.
func (p *partition) appendLocked(m Message) {
	ci := int(p.length >> logChunkShift)
	if ci == len(p.chunks) {
		p.chunks = append(p.chunks, make([]Message, 0, logChunkSize))
	}
	p.chunks[ci] = append(p.chunks[ci], m)
	p.length++
}

// copyRange returns a fresh slice holding offsets [offset, end). Caller
// holds p.mu and guarantees the range is within the log.
func (p *partition) copyRange(offset, end int64) []Message {
	out := make([]Message, 0, end-offset)
	for offset < end {
		chunk := p.chunks[offset>>logChunkShift]
		lo := offset & logChunkMask
		hi := int64(len(chunk))
		if rest := end - (offset - lo); rest < hi {
			hi = rest
		}
		out = append(out, chunk[lo:hi]...)
		offset += hi - lo
	}
	return out
}

// end returns the partition's end offset (the next to be assigned).
func (p *partition) end() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.length
}

// New creates an empty broker on the wall clock.
func New() *Bus {
	return NewWithClock(clock.New())
}

// Clock returns the clock the bus stamps publish times from.
func (b *Bus) Clock() clock.Clock { return b.clk }

// NewWithClock creates an empty broker stamping publish times from clk —
// the deterministic configuration used by tests and the chaos harness.
func NewWithClock(clk clock.Clock) *Bus {
	return &Bus{
		clk:    clk,
		topics: make(map[string]*topic),
		groups: make(map[string]*group),
	}
}

// SetMetrics installs the observability registry: per topic-partition
// produce counters (bus_produced_total), with consume counters and lag
// gauges added by consumers as they poll. Topics declared before or after
// the call are both instrumented. Call it during wiring, before traffic.
func (b *Bus) SetMetrics(reg *metrics.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reg = reg
	for _, t := range b.topics {
		t.instrument(reg)
	}
}

// SetRecorder installs a flight recorder capturing offset seeks (replay
// and chaos-injected restarts) at the source; nil disables.
func (b *Bus) SetRecorder(f *obs.FlightRecorder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = f
}

// recorder returns the installed flight recorder (nil when disabled).
func (b *Bus) recorder() *obs.FlightRecorder {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.events
}

// instrument binds the produce counter of every partition. Caller holds
// b.mu.
func (t *topic) instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for i, p := range t.partitions {
		c := reg.Counter("bus_produced_total", "topic", t.name, "partition", strconv.Itoa(i))
		p.mu.Lock()
		p.produced = c
		p.mu.Unlock()
	}
}

// CreateTopic declares a topic with the given partition count. Creating an
// existing topic with the same partition count is a no-op; changing the
// count is an error.
func (b *Bus) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("bus: topic %q: partitions must be positive", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[name]; ok {
		if len(t.partitions) != partitions {
			return fmt.Errorf("bus: topic %q exists with %d partitions", name, len(t.partitions))
		}
		return nil
	}
	t := &topic{name: name}
	for i := 0; i < partitions; i++ {
		t.partitions = append(t.partitions, &partition{})
	}
	t.instrument(b.reg)
	b.topics[name] = t
	return nil
}

// Topics lists the declared topic names.
func (b *Bus) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	return out
}

// Partitions returns a topic's partition count.
func (b *Bus) Partitions(topicName string) (int, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	return len(t.partitions), nil
}

func (b *Bus) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("bus: unknown topic %q", name)
	}
	return t, nil
}

// Publish appends a message, choosing the partition by key hash (or round
// robin for the empty key). It returns the partition and offset assigned.
// The bus retains value and headers without copying (as a Kafka producer
// serializes them at send time); callers must not modify either after
// publishing.
func (b *Bus) Publish(topicName, key string, value []byte, headers map[string]string) (int, int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, 0, err
	}
	var pi int
	if key == "" {
		b.mu.Lock()
		pi = t.rr % len(t.partitions)
		t.rr++
		b.mu.Unlock()
	} else {
		// Inline FNV-1a: a hash.Hash32 per publish would allocate on
		// the hot producer path.
		h := uint32(2166136261)
		for i := 0; i < len(key); i++ {
			h ^= uint32(key[i])
			h *= 16777619
		}
		pi = int(h) % len(t.partitions)
	}
	off, err := b.publishTo(t, pi, key, value, headers)
	return pi, off, err
}

// PublishTo appends a message to an explicit partition — the custom
// partitioner hook used to fan heartbeat messages to every partition
// (§V-B).
func (b *Bus) PublishTo(topicName string, partition int, key string, value []byte, headers map[string]string) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.partitions) {
		return 0, fmt.Errorf("bus: topic %q has no partition %d", topicName, partition)
	}
	return b.publishTo(t, partition, key, value, headers)
}

// Broadcast appends a copy of the message to every partition of the topic.
func (b *Bus) Broadcast(topicName, key string, value []byte, headers map[string]string) error {
	t, err := b.topic(topicName)
	if err != nil {
		return err
	}
	for i := range t.partitions {
		if _, err := b.publishTo(t, i, key, value, headers); err != nil {
			return err
		}
	}
	return nil
}

func (b *Bus) publishTo(t *topic, pi int, key string, value []byte, headers map[string]string) (int64, error) {
	p := t.partitions[pi]
	p.mu.Lock()
	// Value and headers are retained as passed — the Publish contract
	// transfers ownership, so no per-message defensive copies here.
	m := Message{
		Topic:     t.name,
		Partition: pi,
		Offset:    p.length,
		Key:       key,
		Value:     value,
		Headers:   headers,
		Time:      b.clk.Now(),
	}
	p.appendLocked(m)
	if p.produced != nil {
		p.produced.Inc()
	}
	p.mu.Unlock()
	t.waiters.wake()
	return m.Offset, nil
}

// EndOffset returns the next offset that will be assigned in a partition.
func (b *Bus) EndOffset(topicName string, partition int) (int64, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return 0, err
	}
	if partition < 0 || partition >= len(t.partitions) {
		return 0, fmt.Errorf("bus: topic %q has no partition %d", topicName, partition)
	}
	return t.partitions[partition].end(), nil
}

// tryRead returns up to max messages from offset without blocking.
func (p *partition) tryRead(offset int64, max int) []Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.length <= offset {
		return nil
	}
	end := p.length
	if max > 0 && offset+int64(max) < end {
		end = offset + int64(max)
	}
	return p.copyRange(offset, end)
}
