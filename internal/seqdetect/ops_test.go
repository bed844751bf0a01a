package seqdetect

import (
	"strings"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/obs"
)

// TestHeartbeatExpiryRecorded: an open event expired by a heartbeat
// leaves a flight-recorder event naming the source and the automaton.
func TestHeartbeatExpiryRecorded(t *testing.T) {
	d := New(learnedModel(), Config{})
	f := obs.NewFlightRecorder(clock.NewFake(), 8)
	d.Instrument(&obs.Ops{Events: f})

	feed(d, trace("e1", 0, 1, 2)) // starts, never ends
	recs := d.Heartbeat(t0.Add(time.Hour))
	if len(recs) != 1 {
		t.Fatalf("expiry records = %+v", recs)
	}
	evs := f.Events(obs.EventQuery{Type: obs.EventHeartbeatExpiry})
	if len(evs) != 1 || evs[0].Source != "s" ||
		!strings.Contains(evs[0].Detail, "e1") {
		t.Fatalf("expiry events = %+v", evs)
	}
}
