package recovery

import (
	"testing"

	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/obs"
)

func TestQuarantineStrikesThenDeadletters(t *testing.T) {
	b := bus.New()
	rec := obs.NewFlightRecorder(clock.NewFake(), 16)
	q, err := NewQuarantine(3, b)
	if err != nil {
		t.Fatal(err)
	}
	q.Instrument(&obs.Ops{Events: rec})

	for i := 1; i <= 2; i++ {
		if q.Strike("web#12", "web", 12, "the raw line", "panic: bad parse") {
			t.Fatalf("strike %d quarantined before reaching K", i)
		}
	}
	if !q.Strike("web#12", "web", 12, "the raw line", "panic: bad parse") {
		t.Fatal("3rd strike must quarantine")
	}
	if q.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", q.Quarantined())
	}
	// Strikes cleared: a (hypothetical) fresh record under the same key
	// starts over.
	if len(q.Pending()) != 0 {
		t.Errorf("pending strikes after quarantine: %v", q.Pending())
	}

	msgs, err := b.ReadFrom(DeadLetterTopic, 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("deadletter topic has %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	if string(m.Value) != "the raw line" {
		t.Errorf("deadletter payload = %q", m.Value)
	}
	if m.Headers[HeaderDLSource] != "web" || m.Headers[HeaderDLSeq] != "12" ||
		m.Headers[HeaderDLStrikes] != "3" || m.Headers[HeaderDLError] != "panic: bad parse" {
		t.Errorf("deadletter headers = %v", m.Headers)
	}
	if evs := rec.Events(obs.EventQuery{Type: obs.EventQuarantine}); len(evs) != 1 {
		t.Errorf("quarantine events = %d, want 1", len(evs))
	}
}

func TestQuarantineIndependentKeys(t *testing.T) {
	q, err := NewQuarantine(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.Strike("a#1", "a", 1, "x", "e")
	q.Strike("b#1", "b", 1, "y", "e")
	if q.Quarantined() != 0 {
		t.Fatal("single strikes on distinct keys must not quarantine")
	}
	if !q.Strike("a#1", "a", 1, "x", "e") {
		t.Error("2nd strike on a#1 must quarantine with K=2")
	}
	if got := q.Pending(); len(got) != 1 || got["b#1"] != 1 {
		t.Errorf("pending = %v, want b#1:1", got)
	}
}

func TestQuarantineDefaultK(t *testing.T) {
	q, err := NewQuarantine(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.K() != DefaultStrikes {
		t.Errorf("K = %d, want DefaultStrikes", q.K())
	}
}

func TestQuarantinePendingRestoreRoundTrip(t *testing.T) {
	q1, _ := NewQuarantine(3, nil)
	q1.Strike("web#5", "web", 5, "l", "e")
	q1.Strike("web#5", "web", 5, "l", "e")
	q1.Strike("db#9", "db", 9, "l", "e")

	q2, _ := NewQuarantine(3, nil)
	q2.Restore(q1.Pending(), q1.Quarantined())
	// web#5 carried 2 strikes across the "restart": one more quarantines.
	if !q2.Strike("web#5", "web", 5, "l", "e") {
		t.Error("restored strikes lost — poison record would cycle forever across restarts")
	}
	if q2.Strike("db#9", "db", 9, "l", "e") {
		t.Error("db#9 quarantined at 2 strikes with K=3")
	}
}
