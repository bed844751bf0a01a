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
// buffer, under the same blocking and rejection rules.
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
// Calls may overlap. Each partition's queue is FIFO, which is the only
// order the engine keeps: a Mark taken after SendBatch returns covers its
// records, whatever other senders queued meanwhile.
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
	pp := e.partsPool.Get().(*[][]Record)
	parts := *pp
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
		// A heartbeat-free run: split it by partition, deliver it.
		for ; i < len(recs) && !recs[i].Heartbeat; i++ {
			p := partition(recs[i].Key, len(parts))
			if parts[p] == nil {
				parts[p] = e.RecordBuffer()
			}
			parts[p] = append(parts[p], recs[i])
		}
		if u := e.flushParts(parts); u > 0 {
			rejected = u + len(recs) - i
		}
	}
	e.partsPool.Put(pp)
	e.putRecordBuffer(recs)
	if rejected > 0 {
		return e.rejectClosed(rejected)
	}
	return nil
}

// fanHeartbeat delivers one copy of a heartbeat to every worker queue
// (§V-B), sharing a fan-out token so the heartbeat is counted once no
// matter how many partitions process it. Each copy counts in its
// worker's enq like any queued record.
func (e *Engine) fanHeartbeat(rec Record) error {
	fan := &hbFan{}
	fan.left.Store(int32(len(e.workers)))
	rec.fan = fan
	for i, w := range e.workers {
		w.enq.Add(1)
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
// interrupted the hand-off. An undelivered slice that was already counted
// in its worker's enq stays counted, so no mark taken from then on is
// reached; the engine is closed, and commits stop at the rejection point.
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
// partition's backlog. The slice counts in w's enq before it can enter
// the queue.
func (e *Engine) deliver(w *worker, buf []Record) bool {
	w.enq.Add(uint64(len(buf)))
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

// Mark is a position in the engine's input: entry p counts the records
// (heartbeat copies included) queued to partition p so far.
type Mark []uint64

// Mark returns the current position of every partition's queue. Taken
// after a Send or SendBatch returns, it covers that call's records.
func (e *Engine) Mark() Mark {
	m := make(Mark, len(e.workers))
	for i, w := range e.workers {
		m[i] = w.enq.Load()
	}
	return m
}

// Reached reports whether every partition has retired — processed and
// sunk, or dropped — every record queued to it before m was taken.
func (e *Engine) Reached(m Mark) bool {
	for i, w := range e.workers {
		if w.retired.Load() < m[i] {
			return false
		}
	}
	return true
}
