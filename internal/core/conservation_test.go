package core

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/chaos"
	"loglens/internal/clock"
	"loglens/internal/logtypes"
	"loglens/internal/testutil"
)

// conservationCorpus builds a small training corpus plus a production
// stream with a known composition: nParsed lines the model parses and
// nUnparsed lines no pattern matches.
func conservationCorpus(nParsed, nUnparsed int) (training []logtypes.Log, prod []string) {
	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("req-%03d", i)
		t0 := base.Add(time.Duration(i*5) * time.Second)
		training = append(training,
			logtypes.Log{Source: "web", Seq: uint64(2*i + 1), Raw: fmt.Sprintf(
				"%s 10.0.0.%d request %s received path /api/items/%d",
				t0.Format("2006/01/02 15:04:05.000"), i%5+1, id, i%40)},
			logtypes.Log{Source: "web", Seq: uint64(2*i + 2), Raw: fmt.Sprintf(
				"%s 10.0.0.%d request %s served bytes %d",
				t0.Add(time.Second).Format("2006/01/02 15:04:05.000"), i%5+1, id, 512+i)},
		)
	}
	prodBase := base.Add(time.Hour)
	for i := 0; i < nParsed/2; i++ {
		id := fmt.Sprintf("req-9%02d", i)
		t0 := prodBase.Add(time.Duration(i*3) * time.Second)
		prod = append(prod,
			fmt.Sprintf("%s 10.0.0.1 request %s received path /api/items/1",
				t0.Format("2006/01/02 15:04:05.000"), id),
			fmt.Sprintf("%s 10.0.0.1 request %s served bytes 700",
				t0.Add(time.Second).Format("2006/01/02 15:04:05.000"), id),
		)
	}
	for i := 0; i < nUnparsed; i++ {
		prod = append(prod, fmt.Sprintf("segfault %d at 0x0 in worker thread", i))
	}
	return training, prod
}

// TestConservationClean: on an orderly run every line the agent ships must
// be accounted exactly once at every layer — bus, log manager, stream
// engine, parser — with nothing dropped. The pipeline runs on a fake
// clock, so no batch interval ever fires; Stop's close-drain path must
// still process (not lose) everything.
func TestConservationClean(t *testing.T) {
	const nParsed, nUnparsed = 40, 7
	training, prod := conservationCorpus(nParsed, nUnparsed)

	fc := clock.NewFake()
	p, err := New(Config{Clock: fc, DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Train("conservation", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag, err := p.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range prod {
		if err := ag.Send(line); err != nil {
			t.Fatal(err)
		}
	}
	n := uint64(len(prod))

	// The log manager pump runs on real time; wait for it to hand every
	// line to the engine, then let Stop's close-drain process them.
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.logmgr.Received() == n
	}, "log manager did not forward every line")
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}

	snap := p.Metrics().Snapshot()
	// Bus: every line produced to the logs topic, every line consumed.
	if got := snap.CounterSum("bus_produced_total"); got != n {
		t.Errorf("bus_produced_total = %d, want %d", got, n)
	}
	if got := snap.Counter("logmanager_received_total"); got != n {
		t.Errorf("logmanager_received_total = %d, want %d", got, n)
	}
	if got := snap.Counter("core_lines_total"); got != n {
		t.Errorf("core_lines_total = %d, want %d", got, n)
	}
	// Engine: all records processed, none dropped.
	if got := snap.Counter("stream_records_total", "engine", "main"); got != n {
		t.Errorf("stream_records_total = %d, want %d", got, n)
	}
	if got := snap.Counter("stream_records_dropped_total", "engine", "main", "reason", "abandoned"); got != 0 {
		t.Errorf("stream_records_dropped_total = %d, want 0", got)
	}
	// Parser verdicts: exact split, and the balance closes.
	parsed := snap.Counter("core_parsed_total")
	unparsed := snap.Counter("core_unparsed_total")
	if parsed != nParsed {
		t.Errorf("core_parsed_total = %d, want %d", parsed, nParsed)
	}
	if unparsed != nUnparsed {
		t.Errorf("core_unparsed_total = %d, want %d", unparsed, nUnparsed)
	}
	if parsed+unparsed != n {
		t.Errorf("conservation broken: parsed %d + unparsed %d != lines %d", parsed, unparsed, n)
	}
	// The parser-level counters agree with the core-level ones.
	if got := snap.Counter("parser_parsed_total"); got != parsed {
		t.Errorf("parser_parsed_total = %d, want %d", got, parsed)
	}
	if got := snap.Counter("parser_unparsed_total"); got != unparsed {
		t.Errorf("parser_unparsed_total = %d, want %d", got, unparsed)
	}
	// Every unparsed line surfaced as a stateless anomaly.
	if got := snap.Counter("core_anomalies_total", "type", "unparsed-log"); got != nUnparsed {
		t.Errorf("unparsed-log anomalies = %d, want %d", got, nUnparsed)
	}
}

// TestConservationUnderChaos: with a seeded chaos producer dropping,
// duplicating, and reordering messages between "agent" and bus, the
// balance must still close exactly: everything the chaos layer delivered
// to the bus is parsed or unparsed, and published == delivered + dropped
// + the duplication surplus the chaos layer itself accounts.
func TestConservationUnderChaos(t *testing.T) {
	const nParsed, nUnparsed = 60, 9
	training, prod := conservationCorpus(nParsed, nUnparsed)

	fc := clock.NewFake()
	p, err := New(Config{Clock: fc, DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Train("conservation-chaos", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	// Publish through the chaos producer with agent-style headers,
	// bypassing the Agent so faults land between shipper and bus.
	cp := chaos.NewProducer(p.Bus(), agent.LogsTopic, fc, chaos.Config{
		Seed:          42,
		Drop:          0.15,
		Duplicate:     0.10,
		ReorderWindow: 4,
	})
	for i, line := range prod {
		err := cp.Publish("web", []byte(line), map[string]string{
			agent.HeaderSource: "web",
			agent.HeaderSeq:    strconv.Itoa(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := cp.Stats()
	if stats.Published != uint64(len(prod)) {
		t.Fatalf("chaos published %d, want %d", stats.Published, len(prod))
	}
	if stats.Dropped == 0 || stats.Duplicated == 0 {
		t.Fatalf("seed produced no faults (dropped %d, duplicated %d): test is vacuous",
			stats.Dropped, stats.Duplicated)
	}
	// Delivered counts every message handed to the bus, duplicates
	// included, drops excluded.
	if stats.Delivered != stats.Published-stats.Dropped+stats.Duplicated {
		t.Fatalf("chaos stats inconsistent: %+v", stats)
	}

	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.logmgr.Received() == stats.Delivered
	}, "log manager did not forward every delivered line")
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}

	snap := p.Metrics().Snapshot()
	if got := snap.Counter("core_lines_total"); got != stats.Delivered {
		t.Errorf("core_lines_total = %d, want delivered %d", got, stats.Delivered)
	}
	if got := snap.Counter("stream_records_total", "engine", "main"); got != stats.Delivered {
		t.Errorf("stream_records_total = %d, want %d", got, stats.Delivered)
	}
	if got := snap.Counter("stream_records_dropped_total", "engine", "main", "reason", "abandoned"); got != 0 {
		t.Errorf("stream_records_dropped_total = %d, want 0", got)
	}
	parsed := snap.Counter("core_parsed_total")
	unparsed := snap.Counter("core_unparsed_total")
	if parsed+unparsed != stats.Delivered {
		t.Errorf("conservation broken: parsed %d + unparsed %d != delivered %d",
			parsed, unparsed, stats.Delivered)
	}
	// Full balance including the chaos layer: lines in == processed +
	// dropped-by-chaos - duplication surplus.
	if parsed+unparsed+stats.Dropped-stats.Duplicated != stats.Published {
		t.Errorf("chaos balance broken: parsed %d + unparsed %d + dropped %d - duplicated %d != published %d",
			parsed, unparsed, stats.Dropped, stats.Duplicated, stats.Published)
	}
}
