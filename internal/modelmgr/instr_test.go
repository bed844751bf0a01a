package modelmgr

import (
	"testing"
	"time"

	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/metrics"
	"loglens/internal/obs"
	"loglens/internal/store"
)

// TestManagerInstrument: rebuild/save/load activity is mirrored into the
// registry, with the rebuild duration measured on the injected clock.
func TestManagerInstrument(t *testing.T) {
	reg := metrics.NewRegistry()
	st := store.New()
	mgr := NewManager(st, NewBuilder(BuilderConfig{}))
	mgr.SetClock(clock.NewFakeAt(base))
	mgr.Instrument(&obs.Ops{Metrics: reg})

	ix := st.Index(LogsIndexFor("tasks"))
	for _, l := range corpus(60) {
		ix.PutAuto(store.Document{"raw": l.Raw, "seq": l.Seq, "arrival": l.Arrival, "source": l.Source})
	}
	if _, _, err := mgr.Rebuild("r1", "tasks", base.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Load("r1"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("modelmgr_rebuilds_total"); got != 1 {
		t.Errorf("rebuilds = %d, want 1", got)
	}
	if got := snap.Counter("modelmgr_saves_total"); got != 1 { // Rebuild saves
		t.Errorf("saves = %d, want 1", got)
	}
	if got := snap.Counter("modelmgr_loads_total"); got != 1 {
		t.Errorf("loads = %d, want 1", got)
	}
	h, ok := snap.Histogram("modelmgr_rebuild_seconds")
	if !ok || h.Count != 1 {
		t.Errorf("rebuild_seconds = %+v, ok=%v, want one observation", h, ok)
	}
}

// TestControllerAnnounceMetrics: announced instructions are counted per
// op; rejected (invalid-op) announcements are not.
func TestControllerAnnounceMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := NewController(bus.New())
	if err != nil {
		t.Fatal(err)
	}
	c.Instrument(reg)

	if err := c.Announce(Instruction{Op: OpAdd, ModelID: "m1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce(Instruction{Op: OpUpdate, ModelID: "m1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce(Instruction{Op: "bogus", ModelID: "m1"}); err == nil {
		t.Fatal("invalid op must fail")
	}

	snap := reg.Snapshot()
	if got := snap.Counter("modelmgr_announced_total", "op", "add"); got != 1 {
		t.Errorf("announced{add} = %d, want 1", got)
	}
	if got := snap.Counter("modelmgr_announced_total", "op", "update"); got != 1 {
		t.Errorf("announced{update} = %d, want 1", got)
	}
	if got := snap.CounterSum("modelmgr_announced_total"); got != 2 {
		t.Errorf("announced sum = %d, want 2", got)
	}
}
