package parser

import (
	"encoding/json"
	"reflect"
	"testing"

	"loglens/internal/logtypes"
)

func TestParserSaveRestoreCounters(t *testing.T) {
	set := mustSet(t,
		"%{DATETIME} %{IP} login %{NOTSPACE}",
		"%{DATETIME} %{IP} logout %{NOTSPACE}",
	)
	logs := []logtypes.Log{
		raw("2016/02/23 09:00:31 127.0.0.1 login user1"),
		raw("2016/02/23 09:05:00 10.0.0.9 logout admin"),
		raw("2016/02/23 09:06:00 10.0.0.9 login admin"),
		raw("no pattern matches this line"),
	}
	p := New(set, nil)
	for _, l := range logs {
		p.Parse(l)
	}
	before := p.Stats()
	counts := p.PatternCounts()
	if before.Parsed != 3 || before.Unmatched != 1 {
		t.Fatalf("corpus stats = %+v", before)
	}

	data, err := json.Marshal(p.SaveState())
	if err != nil {
		t.Fatal(err)
	}
	var loaded SavedState
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}

	p2 := New(set, nil)
	p2.RestoreState(loaded)
	if p2.Stats() != before {
		t.Fatalf("restored stats = %+v, want %+v", p2.Stats(), before)
	}
	if !reflect.DeepEqual(p2.PatternCounts(), counts) {
		t.Fatalf("restored pattern counts = %v, want %v", p2.PatternCounts(), counts)
	}

	// Restored counters keep accumulating, continuing the original run.
	for _, l := range logs {
		p2.Parse(l)
	}
	if got, want := p2.Stats().Parsed, 2*before.Parsed; got != want {
		t.Fatalf("parsed after resume = %d, want %d", got, want)
	}
	if got := p2.PatternCounts()[1]; got != 2*counts[1] {
		t.Fatalf("pattern 1 count after resume = %d, want %d", got, 2*counts[1])
	}
}

// TestRestoreStateReplacesLiveCounts: counts accumulated in live groups
// before a restore are replaced by the snapshot, not added to it, and the
// checkpoint form is the plain pattern-ID map.
func TestRestoreStateReplacesLiveCounts(t *testing.T) {
	set := mustSet(t, "a %{NUMBER}", "b %{NUMBER}")
	p := New(set, nil)
	p.Parse(raw("a 1"))
	p.Parse(raw("a 2"))
	p.Parse(raw("b 3"))
	data, err := json.Marshal(p.SaveState())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"stats":{"Parsed":3,"Unmatched":0,"GroupHits":2,"GroupBuilds":1,"GroupEvictions":0,"CandidateScans":4},"pattern_counts":{"1":2,"2":1}}`
	if string(data) != want {
		t.Fatalf("checkpoint JSON = %s\nwant %s", data, want)
	}

	p.Parse(raw("b 4")) // past the snapshot
	var loaded SavedState
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	p.RestoreState(loaded)
	if got := p.PatternCounts(); !reflect.DeepEqual(got, map[int]uint64{1: 2, 2: 1}) {
		t.Fatalf("PatternCounts after restore = %v", got)
	}
	p.Parse(raw("b 5"))
	if got := p.PatternCounts()[2]; got != 2 {
		t.Fatalf("pattern 2 after restore and one more line = %d, want 2", got)
	}
}
