package bus

import (
	"fmt"
	"strconv"

	"loglens/internal/obs"
)

// This file is the broker surface the recovery subsystem checkpoints and
// restores: committed group offsets out, seeks back in, plus a
// side-effect-free peek for inspecting quarantined messages.

// PartitionKey formats the "topic/partition" key used by GroupOffsets
// and checkpoints.
func PartitionKey(topic string, partition int) string {
	return topic + "/" + strconv.Itoa(partition)
}

// SplitPartitionKey parses a key produced by PartitionKey.
func SplitPartitionKey(key string) (topic string, partition int, err error) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			p, perr := strconv.Atoi(key[i+1:])
			if perr != nil {
				return "", 0, fmt.Errorf("bus: bad partition key %q", key)
			}
			return key[:i], p, nil
		}
	}
	return "", 0, fmt.Errorf("bus: bad partition key %q", key)
}

// GroupOffsets returns the committed offsets of one consumer group,
// keyed "topic/partition" — the positions a checkpoint records and a
// restart resumes from. Unknown groups return an empty map.
func (b *Bus) GroupOffsets(groupName string) map[string]int64 {
	b.groupsMu.Lock()
	g, ok := b.groups[groupName]
	b.groupsMu.Unlock()
	out := make(map[string]int64)
	if !ok {
		return out
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for tp, off := range g.committed {
		out[PartitionKey(tp.topic, tp.partition)] = off
	}
	return out
}

// GroupNames lists the consumer groups the broker knows about.
func (b *Bus) GroupNames() []string {
	b.groupsMu.Lock()
	defer b.groupsMu.Unlock()
	out := make([]string, 0, len(b.groups))
	for name := range b.groups {
		out = append(out, name)
	}
	return out
}

// SeekGroup positions one partition of a consumer group — read and
// committed offsets together — creating the group if it does not exist
// yet. This is the restore path: checkpointed offsets are installed
// before the group's consumers are recreated, so their first poll
// resumes exactly where the checkpoint left off. The topic need not be
// declared yet for the same reason.
func (b *Bus) SeekGroup(groupName, topicName string, partition int, offset int64) {
	g := b.groupByName(groupName)
	tp := topicPartition{topicName, partition}
	g.mu.Lock()
	g.read[tp] = offset
	g.committed[tp] = offset
	g.mu.Unlock()
	if t, err := b.topic(topicName); err == nil {
		t.waiters.wake()
	}
	b.recorder().Record(obs.EventBusSeek, groupName,
		fmt.Sprintf("%s/%d restore-seek", topicName, partition), offset)
}

// CommitGroup advances one partition's committed offset for a consumer
// group, creating the group if needed. Like Consumer.Commit it never
// regresses; unlike it, no subscribed consumer instance is required —
// the networked broker commits on behalf of remote readers.
func (b *Bus) CommitGroup(groupName, topicName string, partition int, offset int64) {
	g := b.groupByName(groupName)
	tp := topicPartition{topicName, partition}
	g.mu.Lock()
	if offset > g.committed[tp] {
		g.committed[tp] = offset
	}
	g.mu.Unlock()
}

// ReadFrom returns up to max messages of one partition starting at
// offset without touching any group state — a side-effect-free peek used
// by the deadletter API and tests.
func (b *Bus) ReadFrom(topicName string, partition int, offset int64, max int) ([]Message, error) {
	t, err := b.topic(topicName)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= len(t.partitions) {
		return nil, fmt.Errorf("bus: topic %q has no partition %d", topicName, partition)
	}
	return t.partitions[partition].tryRead(offset, max), nil
}
