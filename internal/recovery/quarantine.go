package recovery

import (
	"fmt"
	"strconv"
	"sync"

	"loglens/internal/bus"
	"loglens/internal/obs"
)

// DeadLetterTopic is the bus topic quarantined poison records are routed
// to, with their error context in headers.
const DeadLetterTopic = "deadletter"

// Dead-letter message headers.
const (
	// HeaderDLSource is the original log source.
	HeaderDLSource = "source"
	// HeaderDLSeq is the original per-source sequence number.
	HeaderDLSeq = "seq"
	// HeaderDLError is the last panic/error message the record caused.
	HeaderDLError = "error"
	// HeaderDLStrikes is how many attempts the record poisoned before
	// quarantine.
	HeaderDLStrikes = "strikes"
)

// DefaultStrikes is the default K: a record that panics the operator K
// times across redeliveries is quarantined.
const DefaultStrikes = 3

// Quarantine tracks per-record panic strikes and routes records that
// keep poisoning the operator to the deadletter topic instead of letting
// them cycle (or silently dropping them). It is safe for concurrent use
// — operator panics surface from parallel partition workers.
type Quarantine struct {
	k      int
	bus    bus.Broker
	events *obs.FlightRecorder // nil until Instrument

	mu      sync.Mutex
	strikes map[string]int
	total   uint64
}

// NewQuarantine builds a quarantine with threshold k (DefaultStrikes
// when <= 0) publishing to b's deadletter topic. The topic is declared
// here so consumers and the dashboard can subscribe before the first
// poison record.
func NewQuarantine(k int, b bus.Broker) (*Quarantine, error) {
	if k <= 0 {
		k = DefaultStrikes
	}
	if b != nil {
		if err := b.CreateTopic(DeadLetterTopic, 1); err != nil {
			return nil, err
		}
	}
	return &Quarantine{k: k, bus: b, strikes: make(map[string]int)}, nil
}

// Instrument records each quarantine as an event in o's flight recorder.
func (q *Quarantine) Instrument(o *obs.Ops) { q.events = o.Events }

// K returns the strike threshold.
func (q *Quarantine) K() int { return q.k }

// Strike records one operator panic for the record identified by key
// (e.g. "source#seq"). On the K-th strike the record is published to the
// deadletter topic with its error context and Strike returns true: the
// caller must stop retrying it. Below K it returns false: the caller may
// redeliver.
func (q *Quarantine) Strike(key, source string, seq uint64, raw string, errCtx string) bool {
	q.mu.Lock()
	q.strikes[key]++
	n := q.strikes[key]
	if n < q.k {
		q.mu.Unlock()
		return false
	}
	delete(q.strikes, key)
	q.total++
	q.mu.Unlock()

	if q.bus != nil {
		q.bus.Publish(DeadLetterTopic, source, []byte(raw), map[string]string{
			HeaderDLSource:  source,
			HeaderDLSeq:     strconv.FormatUint(seq, 10),
			HeaderDLError:   errCtx,
			HeaderDLStrikes: strconv.Itoa(n),
		})
	}
	q.events.Record(obs.EventQuarantine, source,
		fmt.Sprintf("record seq=%d quarantined after %d strikes: %s", seq, n, errCtx), int64(n))
	return true
}

// Quarantined returns how many records have been routed to the
// deadletter topic.
func (q *Quarantine) Quarantined() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Pending returns a copy of the in-flight strike counts (records that
// have panicked but not yet reached K) — checkpointed so redelivered
// poison records keep their strike history across a crash.
func (q *Quarantine) Pending() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.strikes))
	for k, v := range q.strikes {
		out[k] = v
	}
	return out
}

// Restore replaces the in-flight strike counts and the quarantined
// total from a checkpoint.
func (q *Quarantine) Restore(pending map[string]int, total uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.strikes = make(map[string]int, len(pending))
	for k, v := range pending {
		q.strikes[k] = v
	}
	q.total = total
}
