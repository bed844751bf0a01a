package netbus

import (
	"context"
	"strconv"
	"sync"
	"time"

	"loglens/internal/agent"
)

// publishRetryDelay paces the drainer's retries while the broker is
// unreachable.
const publishRetryDelay = 50 * time.Millisecond

// Publisher is the agent-side shipping path: lines land in the spool
// first (disk-backed when configured), and a single drainer goroutine
// moves them to the broker in order, surviving outages by simply
// retrying the head. Each line carries its per-source sequence as the
// broker's idempotence identity, so a re-send after a lost ack is
// acknowledged without being appended — at-least-once transport,
// exactly-once append.
type Publisher struct {
	c     *Client
	topic string
	spool *Spool

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	acked uint64
}

// NewPublisher wires a publisher to a client and starts its drainer.
func NewPublisher(c *Client, topic string, spool *Spool) *Publisher {
	p := &Publisher{
		c:     c,
		topic: topic,
		spool: spool,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	p.wg.Add(1)
	go p.drain()
	if spool.Len() > 0 {
		p.nudge() // backlog replayed from disk: start shipping now
	}
	return p
}

// Send queues one log line. It returns once the line is spooled (and on
// disk, when the spool is file-backed) — broker delivery is the
// drainer's business. The spooled request carries the agent header
// convention the log manager routes by, and the per-source seq the
// broker dedups on.
func (p *Publisher) Send(source string, seq uint64, raw string) error {
	return p.enqueue(lineRequest(p.topic, source, seq, raw))
}

// lineRequest is the publish request that ships one log line.
func lineRequest(topic, source string, seq uint64, raw string) *Request {
	return &Request{
		Topic: topic, Key: source, Value: []byte(raw),
		Headers: map[string]string{
			agent.HeaderSource: source,
			agent.HeaderSeq:    strconv.FormatUint(seq, 10),
		},
		Source: source, Seq: seq,
	}
}

// SendHeartbeat queues a heartbeat-tagged message on the data channel
// (§V-B: heartbeats travel where the logs travel). Heartbeats are
// idempotent by content, so they carry no seq identity.
func (p *Publisher) SendHeartbeat(source string, t time.Time) error {
	return p.enqueue(&Request{
		Topic: p.topic, Key: source,
		Headers: map[string]string{
			agent.HeaderSource:    source,
			agent.HeaderHeartbeat: t.Format(time.RFC3339Nano),
		},
	})
}

func (p *Publisher) enqueue(req *Request) error {
	if err := p.spool.Append(req); err != nil {
		return err
	}
	p.nudge()
	return nil
}

// Acked returns the number of requests the broker has acknowledged.
func (p *Publisher) Acked() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked
}

// Drain blocks until the spool is empty (every queued request acked) or
// ctx is done.
func (p *Publisher) Drain(ctx context.Context) error {
	for p.spool.Len() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.c.clk.After(10 * time.Millisecond):
		}
	}
	return nil
}

// Close stops the drainer. Spooled requests stay put (and on disk), ready
// for the next session's replay.
func (p *Publisher) Close() {
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	p.wg.Wait()
}

func (p *Publisher) nudge() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// drain ships the spool head until closed: ack pops it, any failure
// retries the same head after a pause. Order is preserved per spool by
// construction; the broker's sequence dedup absorbs re-sends.
func (p *Publisher) drain() {
	defer p.wg.Done()
	for {
		req, ok := p.spool.Head()
		if !ok {
			select {
			case <-p.done:
				return
			case <-p.kick:
				continue
			}
		}
		if _, err := p.c.call(OpPublish, req); err != nil {
			select {
			case <-p.done:
				return
			case <-p.c.clk.After(publishRetryDelay):
			}
			continue
		}
		p.spool.AckHead()
		p.mu.Lock()
		p.acked++
		p.mu.Unlock()
	}
}
