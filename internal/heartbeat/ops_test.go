package heartbeat

import (
	"strings"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/obs"
)

// TestStalenessTracksWallClock: Staleness is computed live from the wall
// clock, so a probe sees silence grow without any Tick in between.
func TestStalenessTracksWallClock(t *testing.T) {
	c, clk := newTestController()
	c.Observe("a", log0)
	clk.Advance(30 * time.Second)
	c.Observe("b", log0)
	clk.Advance(10 * time.Second)

	st := c.Staleness()
	if len(st) != 2 {
		t.Fatalf("staleness = %v", st)
	}
	if st["a"] != 40*time.Second || st["b"] != 10*time.Second {
		t.Fatalf("staleness = %v, want a=40s b=10s", st)
	}
}

// TestInstrumentRecordsSweepsAndForgottenSources: with the ops plane
// attached, every Tick sweep leaves a span on the sweep thread and a
// source deleted for silence leaves a flight-recorder event.
func TestInstrumentRecordsSweepsAndForgottenSources(t *testing.T) {
	fake := clock.NewFakeAt(wall0)
	c := New(Config{ActivityWindow: time.Minute})
	c.SetClock(fake)
	ops := obs.New(fake)
	c.Instrument(ops)

	c.Observe("src", log0)
	fake.Advance(2 * time.Minute) // past the activity window
	if hbs := c.Tick(); len(hbs) != 0 {
		t.Fatalf("heartbeats for a forgotten source: %v", hbs)
	}

	evs := ops.Events.Events(obs.EventQuery{Type: obs.EventSourceForgotten})
	if len(evs) != 1 || evs[0].Source != "src" || evs[0].Value != 120 {
		t.Fatalf("forgotten events = %+v", evs)
	}
	names := ops.Spans.ThreadNames()
	found := false
	for _, n := range names {
		if n == "heartbeat sweep" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sweep thread registered: %v", names)
	}
	spans := ops.Spans.Spans(time.Time{})
	if len(spans) == 0 || !strings.Contains(spans[0].Name, "sweep") {
		t.Fatalf("sweep span missing: %+v", spans)
	}
}
