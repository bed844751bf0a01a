package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"loglens/internal/clock"
)

// DefaultEventCapacity is the flight-recorder ring size when
// NewFlightRecorder is given zero. Events are rare (anomalies,
// rebroadcasts, crashes), so 4096 slots hold hours of history.
const DefaultEventCapacity = 4096

// EventType classifies a flight-recorder event. The taxonomy is the set
// of facts an operator reconstructs an incident from (DESIGN.md "Ops
// plane"); components record them at the source.
type EventType string

const (
	// EventAnomaly: an anomaly record reached the sink (core).
	EventAnomaly EventType = "anomaly"
	// EventHeartbeatExpiry: a heartbeat expired an open event state
	// (seqdetect, §V-B).
	EventHeartbeatExpiry EventType = "heartbeat-expiry"
	// EventRebroadcastApplied: a queued model rebroadcast was installed
	// at a micro-batch barrier (stream, §V-A).
	EventRebroadcastApplied EventType = "rebroadcast-applied"
	// EventRebroadcastFailed: a control instruction could not be applied
	// (core/modelmgr) — e.g. the announced model failed to load.
	EventRebroadcastFailed EventType = "rebroadcast-failed"
	// EventWorkerCrash: an operator panicked on a record; the partition
	// survived and the record was dropped (stream).
	EventWorkerCrash EventType = "worker-crash"
	// EventRecordsDropped: the engine abandoned accepted records at
	// cancellation (stream).
	EventRecordsDropped EventType = "records-dropped"
	// EventStorageError: a storage operation failed (modelmgr).
	EventStorageError EventType = "storage-error"
	// EventBusSeek: a consumer group offset was rewound or forwarded
	// explicitly — replay, or a chaos-injected crash/restart (bus).
	EventBusSeek EventType = "bus-seek"
	// EventSourceForgotten: the heartbeat controller dropped a source
	// that stayed silent past the activity window (heartbeat).
	EventSourceForgotten EventType = "source-forgotten"
	// EventShutdown: the process began an orderly shutdown (cmd).
	EventShutdown EventType = "shutdown"
	// EventQuarantine: a poison record exhausted its redelivery strikes
	// and was routed to the deadletter topic (recovery).
	EventQuarantine EventType = "quarantine"
	// EventCheckpoint: a checkpoint generation was saved or restored
	// (recovery).
	EventCheckpoint EventType = "checkpoint"
	// EventIntakeShed: the intake admission layer refused lines — Source
	// is the tenant, Detail the shed reason, Value the line count
	// (intake).
	EventIntakeShed EventType = "intake-shed"
	// EventIntakeConnRejected: a TCP connection was refused at the
	// concurrency cap (intake).
	EventIntakeConnRejected EventType = "intake-conn-rejected"
	// EventNetbusReconnect: the broker link state changed — Source is the
	// client role, Detail says lost vs re-established, Value the number of
	// consumer groups resumed (netbus).
	EventNetbusReconnect EventType = "netbus-reconnect"
)

// Event is one flight-recorder entry. All fields are fixed-shape so
// recording is allocation-free: strings are stored by header copy.
type Event struct {
	// Seq is the global record sequence number (monotone; gaps mean the
	// ring wrapped).
	Seq uint64 `json:"seq"`
	// Time is the recorder-clock time of the event.
	Time time.Time `json:"time"`
	// Type classifies the event.
	Type EventType `json:"type"`
	// Source is the log source or component the event concerns.
	Source string `json:"source,omitempty"`
	// Detail is a short human-readable qualifier.
	Detail string `json:"detail,omitempty"`
	// Value is an event-type-specific magnitude (records dropped, model
	// version, lag).
	Value int64 `json:"value,omitempty"`
}

// FlightRecorder is a bounded ring of recent structured events — the
// black box an operator reads after (or during) an incident. It is safe
// for concurrent use; a nil *FlightRecorder is a valid disabled recorder
// whose Record is a single branch.
type FlightRecorder struct {
	clk clock.Clock

	mu   sync.Mutex
	ring []Event
	next uint64
}

// NewFlightRecorder returns a recorder of the given ring capacity (0 =
// DefaultEventCapacity) stamping times from clk.
func NewFlightRecorder(clk clock.Clock, capacity int) *FlightRecorder {
	if clk == nil {
		clk = clock.New()
	}
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &FlightRecorder{clk: clk, ring: make([]Event, capacity)}
}

// Record appends one event. On a nil recorder it is a single branch;
// enabled it is a clock read and a slot write under a short mutex — no
// allocation either way.
func (f *FlightRecorder) Record(t EventType, source, detail string, value int64) {
	if f == nil {
		return
	}
	now := f.clk.Now()
	f.mu.Lock()
	slot := &f.ring[f.next%uint64(len(f.ring))]
	slot.Seq = f.next
	slot.Time = now
	slot.Type = t
	slot.Source = source
	slot.Detail = detail
	slot.Value = value
	f.next++
	f.mu.Unlock()
}

// Len returns the total number of events ever recorded (not the retained
// count).
func (f *FlightRecorder) Len() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// EventQuery filters a flight-recorder read.
type EventQuery struct {
	// Type restricts to one event type ("" = all).
	Type EventType
	// Since restricts to events at or after this time (zero = all).
	Since time.Time
	// Limit caps the result to the most recent N matches (0 = all
	// retained).
	Limit int
}

// Events returns the retained events matching q, newest first — the
// order an operator reads an incident in.
func (f *FlightRecorder) Events(q EventQuery) []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	capacity := uint64(len(f.ring))
	start := uint64(0)
	if f.next > capacity {
		start = f.next - capacity
	}
	var out []Event
	for i := f.next; i > start; i-- {
		ev := f.ring[(i-1)%capacity]
		if q.Type != "" && ev.Type != q.Type {
			continue
		}
		if !q.Since.IsZero() && ev.Time.Before(q.Since) {
			continue
		}
		out = append(out, ev)
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}

// WriteTo dumps the retained events oldest first, one line each — the
// shutdown flush target (cmd/loglens writes it to stderr on SIGTERM).
func (f *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	evs := f.Events(EventQuery{})
	var total int64
	for i := len(evs) - 1; i >= 0; i-- {
		ev := evs[i]
		n, err := fmt.Fprintf(w, "%s #%d %-20s source=%s value=%d %s\n",
			ev.Time.Format(time.RFC3339Nano), ev.Seq, ev.Type, ev.Source, ev.Value, ev.Detail)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
