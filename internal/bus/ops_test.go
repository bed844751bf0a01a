package bus

import (
	"testing"

	"loglens/internal/clock"
	"loglens/internal/obs"
)

// TestSeekRecordsFlightEvent: consumer-group offset seeks (replay,
// chaos-injected restarts) land in the installed flight recorder.
func TestSeekRecordsFlightEvent(t *testing.T) {
	b := New()
	f := obs.NewFlightRecorder(clock.NewFake(), 8)
	b.Instrument(&obs.Ops{Events: f})
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	c, err := b.NewConsumer("replay", "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seek("t", 1, 7); err != nil {
		t.Fatal(err)
	}
	evs := f.Events(obs.EventQuery{Type: obs.EventBusSeek})
	if len(evs) != 1 || evs[0].Source != "replay" || evs[0].Value != 7 ||
		evs[0].Detail != "t/1 seek" {
		t.Fatalf("seek events = %+v", evs)
	}
	// Seeking a topic the bus does not know fails without recording.
	if err := c.Seek("nope", 0, 0); err == nil {
		t.Fatal("seek on unknown topic must fail")
	}
	if got := len(f.Events(obs.EventQuery{})); got != 1 {
		t.Fatalf("events after failed seek = %d, want 1", got)
	}
}
