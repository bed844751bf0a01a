package heartbeat

import (
	"testing"
	"time"

	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// TestInstrumentCounts: observations, synthesized heartbeats, and the
// tracked-source gauge are mirrored into the registry.
func TestInstrumentCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	c, clk := newTestController()
	c.Instrument(&obs.Ops{Metrics: reg})

	c.Observe("a", log0)
	clk.Advance(time.Second)
	c.Observe("a", log0.Add(time.Second))
	c.Observe("b", log0)

	clk.Advance(5 * time.Second)
	hbs := c.Tick()
	if len(hbs) != 2 {
		t.Fatalf("heartbeats = %v, want 2", hbs)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("heartbeat_observations_total"); got != 3 {
		t.Errorf("observations = %d, want 3", got)
	}
	if got := snap.Counter("heartbeat_emitted_total"); got != 2 {
		t.Errorf("emitted = %d, want 2", got)
	}
	if got := snap.Gauge("heartbeat_sources"); got != 2 {
		t.Errorf("sources = %d, want 2", got)
	}
}
