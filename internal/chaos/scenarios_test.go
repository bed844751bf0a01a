package chaos

// Scenario suite: the paper's §V guarantees exercised under injected
// faults, on a fake clock, in milliseconds of wall time. Every scenario
// is seed-reproducible: the fault schedule is a pure function of the
// Config seed and the (fixed) call sequence.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/automata"
	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/heartbeat"
	"loglens/internal/idfield"
	"loglens/internal/logtypes"
	"loglens/internal/seqdetect"
	"loglens/internal/stream"
)

var (
	wall0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	log0  = time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
)

// trace builds one event's parsed-log sequence, one log per second
// starting at log0+offset (mirrors the seqdetect test corpus).
func trace(eventID string, offset int, patterns ...int) []*logtypes.ParsedLog {
	out := make([]*logtypes.ParsedLog, len(patterns))
	for i, pid := range patterns {
		out[i] = &logtypes.ParsedLog{
			Log:          logtypes.Log{Source: "s", Seq: uint64(offset*100 + i), Raw: "raw"},
			PatternID:    pid,
			Fields:       []logtypes.Field{{Name: "id", Value: eventID}},
			Timestamp:    log0.Add(time.Duration(offset+i) * time.Second),
			HasTimestamp: true,
		}
	}
	return out
}

func disc(patterns ...int) idfield.Discovery {
	d := idfield.Discovery{FieldOf: map[int]string{}}
	for _, p := range patterns {
		d.FieldOf[p] = "id"
	}
	return d
}

// learnedModel trains the 1->2->3 automaton with max duration 4s, so the
// detector's expiry window is ExpiryFactor(2.0) x 4s = 8s of log time.
func learnedModel() *automata.Model {
	var logs []*logtypes.ParsedLog
	logs = append(logs, trace("t1", 0, 1, 2, 3)...)
	logs = append(logs, trace("t2", 10, 1, 2, 2, 3)...)
	logs = append(logs, trace("t3", 20, 1, 2, 2, 3)...)
	logs = append(logs, trace("t4", 30, 1, 2, 2, 2, 3)...)
	return automata.Learn(logs, disc(1, 2, 3))
}

// Scenario: heartbeat expiry fires within one logical interval. A source
// emits an event begin and goes silent; the external heartbeat controller
// (fake wall clock, 1s interval) synthesizes log time at the observed
// rate; the detector must report the stuck event on exactly the first
// heartbeat whose synthesized log time crosses the 8s expiry window — the
// 9th tick, not earlier, not later.
func TestScenarioHeartbeatExpiryWithinOneInterval(t *testing.T) {
	clk := clock.NewFakeAt(wall0)
	ctrl := heartbeat.New(heartbeat.Config{Interval: time.Second})
	ctrl.SetClock(clk)
	det := seqdetect.New(learnedModel(), seqdetect.Config{})

	// The event begins (pattern 1 only — its end never arrives) and the
	// controller observes the source's embedded log time at wall0.
	begin := trace("e1", 0, 1)
	for _, l := range begin {
		if recs := det.Process(l); len(recs) != 0 {
			t.Fatalf("begin log flagged immediately: %+v", recs)
		}
		ctrl.Observe(l.Source, l.Timestamp)
	}
	if det.OpenStates() == 0 {
		t.Fatal("no open state after event begin")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := make(chan heartbeat.Heartbeat, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctrl.Run(ctx, func(hb heartbeat.Heartbeat) { emitted <- hb })
	}()
	clk.BlockUntil(1) // Run's ticker is registered

	// With a single observation the controller assumes log time tracks
	// wall time, so tick k synthesizes log0 + k seconds. The expiry
	// window closes strictly after 8s: tick 9 is the first heartbeat
	// past it.
	for tick := 1; tick <= 9; tick++ {
		clk.Advance(time.Second)
		var hb heartbeat.Heartbeat
		select {
		case hb = <-emitted:
		case <-time.After(5 * time.Second):
			t.Fatalf("tick %d: no heartbeat emitted", tick)
		}
		wantLog := log0.Add(time.Duration(tick) * time.Second)
		if !hb.Time.Equal(wantLog) {
			t.Fatalf("tick %d synthesized log time %v, want %v", tick, hb.Time, wantLog)
		}
		recs := det.HeartbeatFor(hb.Source, hb.Time)
		if tick < 9 && len(recs) != 0 {
			t.Fatalf("tick %d (within expiry window): anomalies %+v", tick, recs)
		}
		if tick == 9 {
			if len(recs) != 1 {
				t.Fatalf("tick 9 (first past expiry window): %d anomalies, want 1", len(recs))
			}
			if recs[0].Type != anomaly.MissingEnd || recs[0].EventID != "e1" {
				t.Fatalf("tick 9 anomaly = %+v, want MissingEnd for e1", recs[0])
			}
		}
	}
	if det.OpenStates() != 0 {
		t.Errorf("open states = %d after expiry", det.OpenStates())
	}
	cancel()
	wg.Wait()
}

// advanceBatches drives a fake-clock engine until cond holds, advancing
// one batch interval per step. The real-time deadline is a failsafe only.
func advanceBatches(t *testing.T, clk *clock.Fake, interval time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("engine did not reach expected state under fake clock")
		}
		clk.BlockUntil(1)
		clk.Advance(interval)
	}
}

// Scenario: rebroadcast never loses or double-applies a model, even with
// workers crashing mid-micro-batch. Model v1 serves the first wave of
// records, a rebroadcast installs v2 between micro-batches, and a seeded
// crash plan panics operators throughout. Invariants: the update is
// applied exactly once; every surviving record observes exactly the model
// version current for its wave (never a lost update, never a duplicate
// application bumping the version twice); per-partition observed versions
// never regress; partition state maps survive every crash.
func TestScenarioRebroadcastUnderWorkerCrashes(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := clock.NewFakeAt(wall0)
	cfg := Config{Seed: 11, Crash: 0.15}
	var stats Stats

	type obs struct {
		partition int
		version   int
	}
	var mu sync.Mutex
	var seen []obs

	proc := WrapOperator(cfg, &stats, func(ctx *stream.Context, rec stream.Record) []any {
		v, ok := ctx.Broadcast("model")
		if !ok {
			panic("model broadcast missing")
		}
		// Per-partition processed counter in the state map: crashes
		// must not reset it (the partition survives).
		n, _ := ctx.States().Get("processed")
		count, _ := n.(int)
		ctx.States().Put("processed", count+1)
		mu.Lock()
		seen = append(seen, obs{ctx.Partition(), v.(int)})
		mu.Unlock()
		return []any{v}
	})

	eng := stream.New(stream.Config{Partitions: 4, BatchInterval: interval, Clock: clk}, proc)
	eng.Broadcast("model", 1)
	var outputs []any
	eng.SetSink(func(o any) { outputs = append(outputs, o) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = eng.Run(ctx) }()

	const wave = 200
	for i := 0; i < wave; i++ {
		if err := eng.Send(stream.Record{Key: fmt.Sprintf("k%d", i), Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	advanceBatches(t, clk, interval, func() bool { return eng.Metrics().Records >= wave })

	// Wave 1 fully processed under v1; install v2 with zero downtime.
	eng.Broadcast("model", 2)
	for i := wave; i < 2*wave; i++ {
		if err := eng.Send(stream.Record{Key: fmt.Sprintf("k%d", i), Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	advanceBatches(t, clk, interval, func() bool { return eng.Metrics().Records >= 2*wave })
	eng.Close()
	<-done

	m := eng.Metrics()
	if m.UpdatesApplied != 1 {
		t.Errorf("UpdatesApplied = %d, want exactly 1 (no lost or double-applied model)", m.UpdatesApplied)
	}
	crashes := stats.Crashes
	if crashes == 0 {
		t.Fatal("crash plan injected nothing; widen probability")
	}
	if m.OperatorPanics != crashes {
		t.Errorf("OperatorPanics = %d, injected crashes = %d", m.OperatorPanics, crashes)
	}
	if uint64(len(outputs)) != 2*wave-crashes {
		t.Errorf("outputs = %d, want %d records minus %d crashes", len(outputs), 2*wave, crashes)
	}

	// Every observation carries a version that was genuinely installed,
	// and versions never regress within a partition.
	last := map[int]int{}
	for _, o := range seen {
		if o.version != 1 && o.version != 2 {
			t.Fatalf("observed model version %d was never installed", o.version)
		}
		if o.version < last[o.partition] {
			t.Fatalf("partition %d saw model version regress %d -> %d", o.partition, last[o.partition], o.version)
		}
		last[o.partition] = o.version
	}
	mu.Lock()
	v1 := 0
	for _, o := range seen {
		if o.version == 1 {
			v1++
		}
	}
	mu.Unlock()
	if v1 == 0 || v1 > wave {
		t.Errorf("%d observations under v1, want (0, %d]: wave 1 ran before the update, wave 2 after", v1, wave)
	}

	// State maps survived the crashes: per-partition counters sum to the
	// surviving record count.
	total := 0
	for p := 0; p < eng.Partitions(); p++ {
		sm, err := eng.StateMap(p)
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := sm.Get("processed"); ok {
			total += n.(int)
		}
	}
	if uint64(total) != 2*wave-crashes {
		t.Errorf("state-map counters = %d, want %d (partition state lost in a crash)", total, 2*wave-crashes)
	}
}

// Scenario: consumer-group offsets never regress under full producer
// chaos. Drops, duplicates, delays, and reordering batter the publish
// path; a two-member consumer group drains the topic. Invariants: within
// the group every (partition, offset) is delivered exactly once; per
// member, offsets are strictly monotone per partition (Violations
// empty); the group drains exactly what the producer delivered.
func TestScenarioGroupOffsetsNeverRegressUnderProducerChaos(t *testing.T) {
	b := bus.New()
	if err := b.CreateTopic("logs", 3); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFakeAt(wall0)
	p := NewProducer(b, "logs", clk, Config{
		Seed: 77, Drop: 0.1, Duplicate: 0.15, Delay: 0.2,
		MaxDelay: 40 * time.Millisecond, ReorderWindow: 4,
	})
	const sent = 300
	for i := 0; i < sent; i++ {
		if err := p.Publish(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("m%d", i)), nil); err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			clk.Advance(15 * time.Millisecond)
			if err := p.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	clk.Advance(time.Second)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	ps := p.Stats()
	if ps.Dropped == 0 || ps.Duplicated == 0 || ps.Delayed == 0 || ps.Windows == 0 {
		t.Fatalf("fault plan too quiet: %+v", ps)
	}
	if ps.Delivered != sent-ps.Dropped+ps.Duplicated {
		t.Fatalf("delivered %d, want sent(%d) - dropped(%d) + duplicated(%d)", ps.Delivered, sent, ps.Dropped, ps.Duplicated)
	}

	var members []*Consumer
	for i := 0; i < 2; i++ {
		c, err := b.NewConsumer("g", "logs")
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, NewConsumer(c, Config{Seed: 77}))
	}
	counts := map[partitionKey]map[int64]int{}
	var delivered uint64
	for idle := 0; idle < 3; {
		progressed := false
		for _, m := range members {
			for _, msg := range m.TryPoll(32) {
				k := partitionKey{msg.Topic, msg.Partition}
				if counts[k] == nil {
					counts[k] = map[int64]int{}
				}
				counts[k][msg.Offset]++
				delivered++
				progressed = true
			}
		}
		if progressed {
			idle = 0
		} else {
			idle++
		}
	}
	if delivered != ps.Delivered {
		t.Errorf("group drained %d messages, producer delivered %d", delivered, ps.Delivered)
	}
	for _, m := range members {
		if v := m.Violations(); len(v) != 0 {
			t.Errorf("offset regressions without a rewind: %v", v)
		}
	}
	// Exactly-once per offset across the group, offsets contiguous.
	for part, offs := range counts {
		end, err := b.EndOffset(part.topic, part.partition)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(offs)) != end {
			t.Errorf("%s/%d: %d distinct offsets delivered, end offset %d", part.topic, part.partition, len(offs), end)
		}
		for off, n := range offs {
			if n != 1 {
				t.Errorf("%s/%d offset %d delivered %d times within the group", part.topic, part.partition, off, n)
			}
		}
	}
}

// Scenario: consumer crash/restart redelivery is at-least-once and every
// regression is explained by an injected rewind. A single consumer with a
// seeded redelivery plan drains the topic; despite repeated rewinds the
// frontier reaches the end, no offset is skipped, and Violations stays
// empty (every regression sits above a recorded rewind floor).
func TestScenarioConsumerRedeliveryAtLeastOnce(t *testing.T) {
	b := bus.New()
	if err := b.CreateTopic("logs", 2); err != nil {
		t.Fatal(err)
	}
	const sent = 120
	for i := 0; i < sent; i++ {
		if _, _, err := b.Publish("logs", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("m%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.NewConsumer("g", "logs")
	if err != nil {
		t.Fatal(err)
	}
	cc := NewConsumer(c, Config{Seed: 7, Redeliver: 0.3, RedeliverDepth: 3})
	counts := map[partitionKey]map[int64]int{}
	for iter, idle := 0, 0; idle < 3; iter++ {
		if iter > 10000 {
			t.Fatal("consumer did not drain; redelivery loop diverged")
		}
		msgs := cc.TryPoll(16)
		if len(msgs) == 0 {
			idle++
			continue
		}
		idle = 0
		for _, m := range msgs {
			k := partitionKey{m.Topic, m.Partition}
			if counts[k] == nil {
				counts[k] = map[int64]int{}
			}
			counts[k][m.Offset]++
		}
	}
	if cc.Stats().Redeliveries == 0 {
		t.Fatal("redelivery plan injected nothing; widen probability")
	}
	if v := cc.Violations(); len(v) != 0 {
		t.Errorf("unexplained offset regressions: %v", v)
	}
	if lag := c.Lag(); lag != 0 {
		t.Errorf("lag = %d after drain, want 0", lag)
	}
	covered := int64(0)
	for part, offs := range counts {
		end, err := b.EndOffset(part.topic, part.partition)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < end; off++ {
			if offs[off] < 1 {
				t.Errorf("%s/%d offset %d never delivered (at-least-once broken)", part.topic, part.partition, off)
			}
		}
		covered += end
	}
	if covered != sent {
		t.Errorf("coverage spans %d offsets, want %d", covered, sent)
	}
	// Same seed, same rewind schedule: reproducibility witness.
	if len(cc.Schedule()) != int(cc.Stats().Redeliveries) {
		t.Errorf("schedule records %d rewinds, stats say %d", len(cc.Schedule()), cc.Stats().Redeliveries)
	}
}

// Scenario: a fake-clock engine is fully quiescent until time moves.
// Records sent while time is frozen are never processed (only the batch
// timer closes a batch below MaxBatch); each Advance of one batch
// interval then drives the micro-batch cadence deterministically.
func TestScenarioFakeClockDrivesBatchCadence(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := clock.NewFakeAt(wall0)
	eng := stream.New(stream.Config{Partitions: 2, BatchInterval: interval, Clock: clk},
		func(ctx *stream.Context, rec stream.Record) []any { return []any{rec.Value} })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = eng.Run(ctx) }()

	clk.BlockUntil(1) // the first batch timer is armed
	for i := 0; i < 3; i++ {
		if err := eng.Send(stream.Record{Key: fmt.Sprintf("k%d", i), Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Metrics().Records; got != 0 {
		t.Fatalf("records processed with time frozen: %d", got)
	}
	advanceBatches(t, clk, interval, func() bool { return eng.Metrics().Records >= 3 })
	eng.Close()
	<-done
	if got := eng.Metrics().Records; got != 3 {
		t.Fatalf("records = %d, want 3", got)
	}
}
