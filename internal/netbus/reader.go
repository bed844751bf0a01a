package netbus

import (
	"context"
	"sync"
	"time"

	"loglens/internal/bus"
)

// pollRetryDelay paces Poll's retries while the broker link is down.
const pollRetryDelay = 50 * time.Millisecond

// Reader is the client side of a consumer group, implementing
// bus.Reader over the RPC protocol. The broker holds the authoritative
// group offsets; the Reader adds a per-partition delivery frontier so
// the at-least-once redelivery that follows a reconnect (the broker
// rewinds to committed offsets) never hands the pipeline a message it
// already delivered on the old connection.
type Reader struct {
	c      *Client
	group  string
	topics []string

	mu     sync.Mutex
	manual bool
	// frontier maps a partition to the next offset this Reader has yet to
	// deliver; redelivered messages below it are dropped.
	frontier map[partKey]int64
}

// partKey names one partition in the frontier.
type partKey struct {
	topic     string
	partition int
}

// filter drops messages the frontier has already delivered and advances
// it past the rest, compacting msgs in place.
func (r *Reader) filter(msgs []bus.Message) []bus.Message {
	if len(msgs) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := msgs[:0]
	for _, m := range msgs {
		key := partKey{m.Topic, m.Partition}
		if next, ok := r.frontier[key]; ok && m.Offset < next {
			continue // redelivered after a resume; already handed out
		}
		r.frontier[key] = m.Offset + 1
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// resetFrontier realigns the dedup frontier after an explicit seek — the
// rewind is intentional, so redelivery below the old frontier must flow.
func (r *Reader) resetFrontier(topic string, partition int, offset int64) {
	r.mu.Lock()
	r.frontier[partKey{topic, partition}] = offset
	r.mu.Unlock()
}

func (r *Reader) pollReq(max int, waitMs int64) Request {
	r.mu.Lock()
	manual := r.manual
	r.mu.Unlock()
	return Request{
		Group:  r.group,
		Topics: r.topics,
		Max:    max,
		Manual: manual,
		WaitMs: waitMs,
	}
}

// Poll blocks until messages arrive or ctx is done. Broker-side it long
// polls in PollWait windows; transport errors (link down, mid-reconnect)
// are retried quietly — resilience is the Reader's job, not every
// caller's.
func (r *Reader) Poll(ctx context.Context, max int) ([]bus.Message, error) {
	waitMs := int64(r.c.opt.PollWait / time.Millisecond)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := r.c.call(OpPoll, r.pollReq(max, waitMs))
		if err != nil {
			if err == ErrClosed {
				return nil, err
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-r.c.clk.After(pollRetryDelay):
			}
			continue
		}
		if msgs := r.filter(resp.Msgs); msgs != nil {
			return msgs, nil
		}
	}
}

// TryPoll returns immediately with whatever is ready — nothing when the
// broker has nothing or the link is down.
func (r *Reader) TryPoll(max int) []bus.Message {
	resp, err := r.c.call(OpPoll, r.pollReq(max, 0))
	if err != nil {
		return nil
	}
	return r.filter(resp.Msgs)
}

// Commit advances the group's committed offset broker-side. A commit
// lost to a dead link is not retried here: commits are cumulative, so
// the tracker's next flush covers it (same self-healing contract as the
// in-process bus).
func (r *Reader) Commit(topic string, partition int, offset int64) error {
	_, err := r.c.call(OpCommit, Request{
		Group: r.group, Topic: topic, Partition: partition, Offset: offset,
	})
	return err
}

// Seek moves this group's read and committed position.
func (r *Reader) Seek(topic string, partition int, offset int64) error {
	_, err := r.c.call(OpSeek, Request{
		Group: r.group, Topics: r.topics,
		Topic: topic, Partition: partition, Offset: offset,
	})
	if err != nil {
		return err
	}
	r.resetFrontier(topic, partition, offset)
	return nil
}

// DisableAutoCommit switches the broker-side consumer to manual commits
// (the commit-gate mode the pipeline's trackers drive).
func (r *Reader) DisableAutoCommit() {
	r.mu.Lock()
	r.manual = true
	r.mu.Unlock()
	// Propagate eagerly (OpLag is side-effect-free but carries Manual, so
	// the broker-side consumer flips before the next poll can
	// auto-commit).
	r.c.call(OpLag, Request{Group: r.group, Topics: r.topics, Manual: true})
}

// Lag reports messages between the committed frontier and the end of the
// subscribed partitions; 0 when the link is down (lag is advisory).
func (r *Reader) Lag() int64 {
	resp, err := r.c.call(OpLag, Request{Group: r.group, Topics: r.topics, Manual: r.isManual()})
	if err != nil {
		return 0
	}
	return resp.Offset
}

// ReadLag reports messages between the read frontier and the end of the
// subscribed partitions; 0 when the link is down.
func (r *Reader) ReadLag() int64 {
	resp, err := r.c.call(OpReadLag, Request{Group: r.group, Topics: r.topics, Manual: r.isManual()})
	if err != nil {
		return 0
	}
	return resp.Offset
}

func (r *Reader) isManual() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.manual
}

var _ bus.Reader = (*Reader)(nil)
