package bus

import "context"

// Broker is the transport-neutral surface of the bus: everything the
// pipeline, the log manager, the agents, and the recovery subsystem need
// from a Kafka-style broker. The in-process *Bus implements it directly;
// internal/netbus implements it over TCP so the same components run
// unchanged in a multi-node deployment (the paper's Kafka split).
//
// Publish keeps the ownership-transfer contract of (*Bus).Publish: the
// broker retains value and headers without copying, so callers must not
// modify either after publishing.
type Broker interface {
	CreateTopic(name string, partitions int) error
	Partitions(topic string) (int, error)
	Publish(topic, key string, value []byte, headers map[string]string) (partition int, offset int64, err error)
	PublishTo(topic string, partition int, key string, value []byte, headers map[string]string) (int64, error)
	Broadcast(topic, key string, value []byte, headers map[string]string) error
	EndOffset(topic string, partition int) (int64, error)
	// Subscribe creates a reader in the named consumer group; readers
	// sharing a group share offsets (each message goes to one member).
	Subscribe(group string, topics ...string) (Reader, error)
	// GroupOffsets / SeekGroup / ReadFrom are the checkpoint-and-restore
	// surface (see recovery.go).
	GroupOffsets(group string) map[string]int64
	SeekGroup(group, topic string, partition int, offset int64)
	ReadFrom(topic string, partition int, offset int64, max int) ([]Message, error)
}

// Reader is the consumer surface of Broker — what (*Bus).NewConsumer
// returns, abstracted so a networked consumer can stand in.
type Reader interface {
	Poll(ctx context.Context, max int) ([]Message, error)
	TryPoll(max int) []Message
	Commit(topic string, partition int, offset int64) error
	Seek(topic string, partition int, offset int64) error
	DisableAutoCommit()
	Lag() int64
	ReadLag() int64
}

// Subscribe implements Broker for the in-process bus by wrapping
// NewConsumer.
func (b *Bus) Subscribe(group string, topics ...string) (Reader, error) {
	return b.NewConsumer(group, topics...)
}

// ResetReadToCommitted rewinds a group's read frontier back to its
// committed offsets, so everything read but not yet committed is
// redelivered. This is the at-least-once resume a networked broker
// applies when a remote consumer reconnects: in-flight batches that died
// with the connection come back on the next poll.
func (b *Bus) ResetReadToCommitted(groupName string) {
	b.groupsMu.Lock()
	g, ok := b.groups[groupName]
	b.groupsMu.Unlock()
	if !ok {
		return
	}
	rewound := make(map[string]bool)
	g.mu.Lock()
	for tp := range g.read {
		g.read[tp] = g.committed[tp]
		rewound[tp.topic] = true
	}
	g.mu.Unlock()
	for name := range rewound {
		if t, err := b.topic(name); err == nil {
			t.waiters.wake()
		}
	}
}

var _ Broker = (*Bus)(nil)
var _ Reader = (*Consumer)(nil)
