package stream

import "loglens/internal/obs"

// partition maps a record key to its partition: FNV-1a over the key
// bytes, inlined because hash/fnv's New32a allocates a hasher per record.
// Checkpoints restore operator state by partition index, so the function
// must stay bit-identical across versions.
func partition(key string, partitions int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(partitions))
}

// Send enqueues one input record onto its partition's worker queue
// (heartbeats fan a copy to every queue): SendBatch of a one-record
// buffer, under the same blocking, rejection and single-sender rules.
func (e *Engine) Send(rec Record) error {
	return e.SendBatch(append(e.RecordBuffer(), rec))
}

// SendBatch enqueues a batch of records, split at enqueue time into
// per-partition slices handed directly to the worker queues; a heartbeat
// inside the batch flushes the records before it and then fans a copy to
// every queue. Ownership of recs transfers to the engine, which recycles
// the backing array into the RecordBuffer pool — callers must not touch
// recs afterwards. It blocks when a queue is full (backpressure) and
// returns ErrClosed after Close. If Close lands mid-delivery the batch
// may be partially accepted: slices already queued are processed and
// counted, the remainder is rejected and counted under
// stream_records_dropped_total with reason "send-after-close" (outside
// Metrics.RecordsDropped, which only balances accepted records).
//
// Send and SendBatch calls must not overlap: the engine has one sender.
// Seqs are taken in call order, and with two senders a later seq could
// reach a worker queue before an earlier one on the same partition, so
// the frontier would certify the earlier seq before it had run.
func (e *Engine) SendBatch(recs []Record) error {
	if len(recs) == 0 {
		e.putRecordBuffer(recs)
		return nil
	}
	select {
	case <-e.closed:
		n := len(recs)
		e.putRecordBuffer(recs)
		return e.rejectClosed(n)
	default:
	}
	parts := e.parts
	rejected := 0
	for i := 0; i < len(recs) && rejected == 0; {
		if recs[i].Heartbeat {
			// Per-queue FIFO is the ordering guarantee: the records
			// before the heartbeat are already in the worker queues.
			if e.fanHeartbeat(recs[i]) != nil {
				rejected = len(recs) - i
			}
			i++
			continue
		}
		// A heartbeat-free run: split it, reserve its seqs, deliver it.
		n := uint64(0)
		for ; i < len(recs) && !recs[i].Heartbeat; i++ {
			p := partition(recs[i].Key, len(parts))
			if parts[p] == nil {
				parts[p] = e.RecordBuffer()
			}
			n++
			rec := recs[i]
			rec.seq = n // rank within the run until reserve rebases it
			parts[p] = append(parts[p], rec)
		}
		e.reserve(parts, n)
		if u := e.flushParts(parts); u > 0 {
			rejected = u + len(recs) - i
		}
	}
	e.putRecordBuffer(recs)
	if rejected > 0 {
		return e.rejectClosed(rejected)
	}
	return nil
}

// reserve takes frontier seqs for a heartbeat-free run of n records just
// split into parts, each holding its rank within the run: every touched
// worker's enq is bumped first, then one seqCtr.Add takes the whole
// range, so any seq a frontier snapshot can see is already pending at its
// owner. Ranks become seqs by adding the range's base, which keeps seqs
// in send order.
func (e *Engine) reserve(parts [][]Record, n uint64) {
	for p, buf := range parts {
		if len(buf) > 0 {
			e.workers[p].enq.Add(uint64(len(buf)))
		}
	}
	base := e.seqCtr.Add(n) - n
	for _, buf := range parts {
		for i := range buf {
			buf[i].seq += base
		}
	}
}

// fanHeartbeat delivers one copy of a heartbeat to every worker queue
// (§V-B), sharing a fan-out token so the heartbeat is counted once no
// matter how many partitions process it. Heartbeats carry no frontier
// seq (seq 0): the commit watermarks compared against the frontier count
// forwarded log records only, so a heartbeat must neither advance nor
// constrain the certified prefix.
func (e *Engine) fanHeartbeat(rec Record) error {
	fan := &hbFan{}
	fan.left.Store(int32(len(e.workers)))
	rec.fan = fan
	for i, w := range e.workers {
		select {
		case w.queue <- workerMsg{rec: rec}:
		case <-e.closed:
			// Interrupted mid-fan: void the token so the already-queued
			// copies run without counting a record the sender was told
			// was rejected, and retire the undelivered copies' shares.
			fan.void.Store(true)
			fan.left.Add(int32(-(len(e.workers) - i)))
			return ErrClosed
		}
	}
	return nil
}

// flushParts hands the accumulated per-partition slices to their worker
// queues, returning how many records went undelivered because Close
// interrupted the hand-off. A seq assigned to an undelivered record keeps
// its owner constrained below it, so the frontier never certifies a
// prefix containing a rejected record; the engine is closed, and commits
// stop at the rejection point.
func (e *Engine) flushParts(parts [][]Record) (undelivered int) {
	for p, buf := range parts {
		if buf == nil {
			continue
		}
		parts[p] = nil
		if undelivered > 0 || !e.deliver(e.workers[p], buf) {
			undelivered += len(buf)
		}
	}
	return undelivered
}

// deliver hands one partition slice to w's queue, reporting false when
// Close interrupts (buf is recycled either way). A one-record slice
// travels by value and its array goes straight back to the pool, so it
// takes no batchSem slot: the semaphore bounds pooled arrays parked in
// the queues, and a single record must not wait behind another
// partition's backlog.
func (e *Engine) deliver(w *worker, buf []Record) bool {
	msg := workerMsg{batch: buf}
	if len(buf) == 1 {
		msg = workerMsg{rec: buf[0]}
		e.putRecordBuffer(buf)
	} else {
		select {
		case e.batchSem <- struct{}{}:
		case <-e.closed:
			e.putRecordBuffer(buf)
			return false
		}
	}
	select {
	case w.queue <- msg:
		return true
	case <-e.closed:
		if msg.batch != nil {
			<-e.batchSem
			e.putRecordBuffer(buf)
		}
		return false
	}
}

// RecordBuffer returns an empty record slice from the engine's arena for
// use with SendBatch. Steady-state batches cycle through the pool, so
// batching producers allocate no slices per batch. Fill it only by
// appending: the pool relies on a buffer being zero past its length.
func (e *Engine) RecordBuffer() []Record {
	if v := e.recPool.Get(); v != nil {
		return (*v.(*[]Record))[:0]
	}
	return make([]Record, 0, 256)
}

// putRecordBuffer recycles an absorbed batch slice. Its used prefix is
// zeroed so pooled arrays do not pin record payloads; the rest already
// is, because a pooled buffer is zero past its length and every buffer
// handed back was filled only by appending from length zero.
func (e *Engine) putRecordBuffer(recs []Record) {
	if cap(recs) == 0 {
		return
	}
	clear(recs)
	recs = recs[:0]
	e.recPool.Put(&recs)
}

// rejectClosed accounts n records refused because the engine is closed.
func (e *Engine) rejectClosed(n int) error {
	e.instr.droppedClosed.Add(uint64(n))
	e.events.Record(obs.EventRecordsDropped, e.cfg.Name, "send after close", int64(n))
	return ErrClosed
}

// Close stops input. Run drains everything already sent, then returns.
func (e *Engine) Close() {
	e.once.Do(func() { close(e.closed) })
}

// Accepted returns the number of frontier seqs assigned so far — every
// non-heartbeat record accepted by Send/SendBatch. This is the unit of
// the commit frontier reported to OnBarrier: a commit watermark taken
// from Accepted after a batch of sends is certain to be reached once
// those records (and everything accepted before them) retire.
// Heartbeats are seq-less by design, so watermarks must come from here,
// not from a sender-side count that includes them.
func (e *Engine) Accepted() uint64 {
	return e.seqCtr.Load()
}
