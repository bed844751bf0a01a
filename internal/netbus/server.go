package netbus

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"loglens/internal/bus"
	"loglens/internal/metrics"
)

// maxServerWait bounds how long one OpPoll may block broker-side, so a
// dead client cannot pin a handler goroutine forever even if its WaitMs
// is enormous.
const maxServerWait = 5 * time.Second

// pollLinger is how long a long-poll lingers once a message is pending
// before it reads, as Kafka's fetch.max.wait does.
const pollLinger = time.Millisecond

// Server is the broker: it owns an in-process bus (the authoritative
// log) and serves the RPC protocol over TCP. Stop tears down the
// listener and every connection while keeping the bus and the publisher
// dedup state — modeling a broker crash with a durable log, which is
// what the chaos BrokerKill primitive exercises. Listen again to
// "restart" it on the same state.
type Server struct {
	bus *bus.Bus

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	serving bool

	// consumers caches one server-side consumer per group; group offset
	// state lives in the bus, so the cache survives Stop/Listen cycles.
	consumersMu sync.Mutex
	consumers   map[string]*bus.Consumer

	// dedup is the idempotent-producer table: highest sequence appended
	// per (topic, source). A re-sent publish at or below it is
	// acknowledged without appending, so a spooling agent that lost an
	// ack cannot duplicate lines.
	dedupMu sync.Mutex
	dedup   map[dedupKey]uint64

	served *metrics.Counter // netbus_requests_served_total (nil = off)
}

type dedupKey struct {
	topic  string
	source string
}

// NewServer builds a broker around b.
func NewServer(b *bus.Bus) *Server {
	return &Server{
		bus:       b,
		conns:     make(map[net.Conn]struct{}),
		consumers: make(map[string]*bus.Consumer),
		dedup:     make(map[dedupKey]uint64),
	}
}

// Bus exposes the broker's authoritative bus (tests and the broker
// process's own dashboard).
func (s *Server) Bus() *bus.Bus { return s.bus }

// Instrument counts served requests into reg.
func (s *Server) Instrument(reg *metrics.Registry) {
	s.served = reg.Counter("netbus_requests_served_total")
}

// Listen starts accepting broker connections on addr and returns the
// bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("netbus: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.serving {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("netbus: server already listening")
	}
	s.serving = true
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" when stopped).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stop severs the network face — listener and every live connection —
// and waits for handlers to exit. Bus contents, group offsets, and the
// dedup table stay put, so a later Listen resumes the broker exactly
// where it died (the durable-log crash model).
func (s *Server) Stop() {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	s.serving = false
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// Close is a permanent Stop (alias; the state-keeping distinction only
// matters to the chaos harness, which restarts via Listen).
func (s *Server) Close() { s.Stop() }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if !s.serving {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn reads frames off one connection and dispatches each request
// on its own goroutine (polls block; publishes must not queue behind
// them). Responses are serialized by a per-connection write lock.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var wmu sync.Mutex
	var hwg sync.WaitGroup
	defer hwg.Wait()
	// Long-polls end with their connection: one that read messages for a
	// client already gone would take them from its reconnected self.
	alive, gone := context.WithCancel(context.Background())
	defer gone()
	fr := frameReader{r: bufio.NewReaderSize(conn, 64<<10)}
	strs := newStrTable()
	// One payload buffer serves every frame: a request is decoded, with
	// its value copied out, before the next frame is read.
	var buf []byte
	for {
		op, id, payload, err := fr.next(buf)
		if err != nil {
			return // disconnect, or a protocol violation: drop the conn
		}
		if cap(payload) <= maxPooledFrame {
			buf = payload[:0]
		}
		var req Request
		if err := decodeRequest(payload, &req, strs); err != nil {
			s.respond(conn, &wmu, op, id, errResponse(err))
			continue
		}
		req.Value = bytes.Clone(req.Value)
		hwg.Add(1)
		go func(op byte, id uint64, req Request) {
			defer hwg.Done()
			resp := s.handle(alive, op, req)
			s.respond(conn, &wmu, op, id, resp)
		}(op, id, req)
	}
}

func (s *Server) respond(conn net.Conn, wmu *sync.Mutex, op byte, id uint64, resp Response) {
	bp := getFrameBuf()
	frame, err := AppendResponseFrame(*bp, op, id, &resp)
	if err != nil {
		frame, _ = AppendResponseFrame(frame[:0], op, id, &Response{Err: err.Error()})
	}
	wmu.Lock()
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	conn.Write(frame)
	wmu.Unlock()
	putFrameBuf(bp, frame)
}

// handle executes one request against the bus; alive ends with the
// request's connection.
func (s *Server) handle(alive context.Context, op byte, req Request) Response {
	if s.served != nil {
		s.served.Inc()
	}
	switch op {
	case OpPing:
		return Response{}
	case OpPublish:
		if req.Seq > 0 && req.Source != "" {
			key := dedupKey{req.Topic, req.Source}
			s.dedupMu.Lock()
			if req.Seq <= s.dedup[key] {
				s.dedupMu.Unlock()
				return Response{Dup: true}
			}
			// Claim the sequence before publishing: a concurrent re-send
			// of the same seq dedups against the claim.
			prev := s.dedup[key]
			s.dedup[key] = req.Seq
			s.dedupMu.Unlock()
			part, off, err := s.bus.Publish(req.Topic, req.Key, req.Value, req.Headers)
			if err != nil {
				// Release the claim, or the publisher's retry would be
				// acked as a duplicate of a line that was never appended
				// (an agent that starts before the worker creates the
				// topic).
				s.dedupMu.Lock()
				if s.dedup[key] == req.Seq {
					s.dedup[key] = prev
				}
				s.dedupMu.Unlock()
				return errResponse(err)
			}
			return Response{Partition: part, Offset: off}
		}
		part, off, err := s.bus.Publish(req.Topic, req.Key, req.Value, req.Headers)
		if err != nil {
			return errResponse(err)
		}
		return Response{Partition: part, Offset: off}
	case OpPublishTo:
		off, err := s.bus.PublishTo(req.Topic, req.Partition, req.Key, req.Value, req.Headers)
		if err != nil {
			return errResponse(err)
		}
		return Response{Partition: req.Partition, Offset: off}
	case OpBroadcast:
		return errResponse(s.bus.Broadcast(req.Topic, req.Key, req.Value, req.Headers))
	case OpCreateTopic:
		return errResponse(s.bus.CreateTopic(req.Topic, req.Partitions))
	case OpPartitions:
		n, err := s.bus.Partitions(req.Topic)
		if err != nil {
			return errResponse(err)
		}
		return Response{Count: n}
	case OpEndOffset:
		off, err := s.bus.EndOffset(req.Topic, req.Partition)
		if err != nil {
			return errResponse(err)
		}
		return Response{Offset: off}
	case OpPoll:
		return s.handlePoll(alive, req)
	case OpCommit:
		s.bus.CommitGroup(req.Group, req.Topic, req.Partition, req.Offset)
		return Response{}
	case OpSeek:
		c, err := s.consumer(req.Group, req.Topics, req.Manual)
		if err != nil {
			return errResponse(err)
		}
		return errResponse(c.Seek(req.Topic, req.Partition, req.Offset))
	case OpSeekGroup:
		s.bus.SeekGroup(req.Group, req.Topic, req.Partition, req.Offset)
		return Response{}
	case OpGroupOffsets:
		return Response{Offsets: s.bus.GroupOffsets(req.Group)}
	case OpLag:
		c, err := s.consumer(req.Group, req.Topics, req.Manual)
		if err != nil {
			return errResponse(err)
		}
		return Response{Offset: c.Lag()}
	case OpReadLag:
		c, err := s.consumer(req.Group, req.Topics, req.Manual)
		if err != nil {
			return errResponse(err)
		}
		return Response{Offset: c.ReadLag()}
	case OpReadFrom:
		msgs, err := s.bus.ReadFrom(req.Topic, req.Partition, req.Offset, req.Max)
		if err != nil {
			return errResponse(err)
		}
		return Response{Msgs: msgs}
	case OpResume:
		s.bus.ResetReadToCommitted(req.Group)
		return Response{}
	}
	return Response{Err: ErrBadOp.Error()}
}

func (s *Server) handlePoll(alive context.Context, req Request) Response {
	c, err := s.consumer(req.Group, req.Topics, req.Manual)
	if err != nil {
		return errResponse(err)
	}
	if req.WaitMs <= 0 {
		return Response{Msgs: c.TryPoll(req.Max)}
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait > maxServerWait {
		wait = maxServerWait
	}
	ctx, cancel := context.WithTimeout(alive, wait)
	defer cancel()
	if c.Wait(ctx) != nil {
		return Response{} // long-poll timeout: empty batch, client re-polls
	}
	// Something is pending: let the batch fill for pollLinger first, so a
	// consumer that keeps up takes a batch per round trip, not a message.
	select {
	case <-s.bus.Clock().After(pollLinger):
	case <-alive.Done():
		return Response{}
	}
	return Response{Msgs: c.TryPoll(req.Max)}
}

// consumer resolves (creating on first use) the server-side consumer for
// a group. Offset state lives in the bus's group, so the instance is
// interchangeable across connections and broker restarts.
func (s *Server) consumer(group string, topics []string, manual bool) (*bus.Consumer, error) {
	if group == "" {
		return nil, fmt.Errorf("netbus: request names no consumer group")
	}
	s.consumersMu.Lock()
	defer s.consumersMu.Unlock()
	if c, ok := s.consumers[group]; ok {
		if manual {
			c.DisableAutoCommit()
		}
		return c, nil
	}
	if len(topics) == 0 {
		return nil, fmt.Errorf("netbus: group %q has no subscription on this broker", group)
	}
	c, err := s.bus.NewConsumer(group, topics...)
	if err != nil {
		return nil, err
	}
	if manual {
		c.DisableAutoCommit()
	}
	s.consumers[group] = c
	return c, nil
}
