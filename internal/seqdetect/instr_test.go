package seqdetect

import (
	"testing"

	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// TestInstrumentMirrorsStats: the registry counters track the detector's
// internal stats, the open-states gauge follows event lifecycle by delta,
// and skipped logs (no automaton for the pattern) are counted.
func TestInstrumentMirrorsStats(t *testing.T) {
	reg := metrics.NewRegistry()
	d := New(learnedModel(), Config{})
	d.Instrument(&obs.Ops{Metrics: reg})
	if d.Model() == nil {
		t.Fatal("Model() returned nil")
	}

	// One clean trace: 1 -> 2 -> 3 closes the event.
	if recs := feed(d, trace("e1", 0, 1, 2, 3)); len(recs) != 0 {
		t.Fatalf("normal trace flagged: %+v", recs)
	}
	// One anomalous trace: begin missing.
	if recs := feed(d, trace("e2", 10, 3)); len(recs) == 0 {
		t.Fatal("missing-begin not flagged")
	}
	// A pattern no automaton knows: skipped.
	d.Process(&logtypes.ParsedLog{
		Log:       logtypes.Log{Source: "s", Seq: 999, Raw: "raw"},
		PatternID: 42,
		Fields:    []logtypes.Field{{Name: "id", Value: "e3"}},
	})

	snap := reg.Snapshot()
	s := d.Stats()
	if got := snap.Counter("seqdetect_transitions_total"); got != s.LogsProcessed {
		t.Errorf("transitions = %d, stats say %d", got, s.LogsProcessed)
	}
	if got := snap.Counter("seqdetect_skipped_total"); got != s.LogsSkipped {
		t.Errorf("skipped = %d, stats say %d", got, s.LogsSkipped)
	}
	if got := snap.Counter("seqdetect_events_closed_total"); got != s.EventsClosed {
		t.Errorf("closed = %d, stats say %d", got, s.EventsClosed)
	}
	if got := snap.Counter("seqdetect_anomalies_total"); got != s.Anomalies {
		t.Errorf("anomalies = %d, stats say %d", got, s.Anomalies)
	}
	if got := snap.Counter("seqdetect_skipped_total"); got == 0 {
		t.Error("skipped = 0, want > 0")
	}
	if got := snap.Gauge("seqdetect_open_states"); got != int64(d.OpenStates()) {
		t.Errorf("open gauge = %d, detector says %d", got, d.OpenStates())
	}
}
