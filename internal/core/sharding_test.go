package core

import (
	"strconv"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/testutil"
)

// Sharded-pipeline coverage for the persistent per-partition worker
// engine: the conservation balance and the crash/restore cycle must hold
// when records spread across 8 independent worker queues, not just the
// 1- and 4-partition shapes the older suites pin.

// shardedFeed spreads lines round-robin across nSources agents (each
// source keys to one partition). start is the line's absolute corpus
// index, so feeding a corpus in slices assigns every line the same
// source as feeding it whole — crash replays must reproduce the same
// per-source bus sequences.
func shardedFeed(t *testing.T, p *Pipeline, nSources, start int, lines []string) {
	t.Helper()
	agents := make([]interface{ Send(string) error }, nSources)
	for i := range agents {
		ag, err := p.Agent("web"+strconv.Itoa(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = ag
	}
	for i, l := range lines {
		if err := agents[(start+i)%nSources].Send(l); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConservationEightPartitions: the clean-run conservation balance
// (lines == parsed + unparsed, nothing dropped at any layer) must close
// exactly with 8 partition workers each draining its own queue. The fake
// clock keeps every batch window from firing, so the balance rests
// entirely on the workers' close-drain path.
func TestConservationEightPartitions(t *testing.T) {
	const nParsed, nUnparsed = 48, 8
	const sources = 8
	training, prod := conservationCorpus(nParsed, nUnparsed)

	fc := clock.NewFake()
	p, err := New(Config{Clock: fc, DisableHeartbeat: true, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Train("conservation-8p", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	shardedFeed(t, p, sources, 0, prod)
	n := uint64(len(prod))

	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.logmgr.Received() == n
	}, "log manager did not forward every line")
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}

	snap := p.Metrics().Snapshot()
	if got := snap.Counter("core_lines_total"); got != n {
		t.Errorf("core_lines_total = %d, want %d", got, n)
	}
	if got := snap.Counter("stream_records_total", "engine", "main"); got != n {
		t.Errorf("stream_records_total = %d, want %d", got, n)
	}
	if got := snap.Counter("stream_records_dropped_total", "engine", "main", "reason", "abandoned"); got != 0 {
		t.Errorf("stream_records_dropped_total = %d, want 0", got)
	}
	parsed := snap.Counter("core_parsed_total")
	unparsed := snap.Counter("core_unparsed_total")
	if parsed+unparsed != n {
		t.Errorf("conservation broken: parsed %d + unparsed %d != lines %d", parsed, unparsed, n)
	}
	if unparsed != nUnparsed {
		t.Errorf("core_unparsed_total = %d, want %d", unparsed, nUnparsed)
	}
	// Traffic really spread: every partition worker saw records.
	for part := 0; part < 8; part++ {
		if got := snap.Gauge("stream_state_entries", "engine", "main", "partition", strconv.Itoa(part)); got < 0 {
			t.Errorf("partition %d gauge missing", part)
		}
	}
}

// TestCrashRecoveryEightPartitions: one kill-and-restore cycle with 8
// partition workers and traffic spread over 8 sources must reproduce the
// golden (uninterrupted) end state exactly — the commit gate may only
// commit offsets whose mark every worker has reached, having processed
// and sunk its records, whichever worker reached the barrier last.
func TestCrashRecoveryEightPartitions(t *testing.T) {
	const nParsed, nUnparsed = 40, 8
	const sources = 8
	training, _ := conservationCorpus(0, 0)
	_, prod := conservationCorpus(nParsed, nUnparsed)
	n := uint64(len(prod))
	mutate := func(cfg *Config) { cfg.Partitions = 8 }

	// Golden run: uninterrupted, same partitioning and feed order.
	pg := newRecoveryPipeline(t, t.TempDir(), mutate)
	if _, _, err := pg.Train("recovery-8p", training); err != nil {
		t.Fatal(err)
	}
	if err := pg.Start(); err != nil {
		t.Fatal(err)
	}
	shardedFeed(t, pg, sources, 0, prod)
	if err := pg.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	golden := collectResult(pg)
	if err := pg.Stop(); err != nil {
		t.Fatal(err)
	}
	assertConservation(t, golden, n)
	if golden.unparsed != nUnparsed {
		t.Fatalf("golden unparsed = %d, want %d", golden.unparsed, nUnparsed)
	}

	// Crash run: checkpoint mid-stream, keep feeding, kill without
	// drain, restore into a fresh pipeline, replay the full corpus.
	const ckptAt, killAt = 20, 36
	dir := t.TempDir()
	p1 := newRecoveryPipeline(t, dir, mutate)
	if _, _, err := p1.Train("recovery-8p", training); err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	shardedFeed(t, p1, sources, 0, prod[:ckptAt])
	if err := p1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if gen, err := p1.Checkpoint(); err != nil || gen == 0 {
		t.Fatalf("checkpoint: gen %d, err %v", gen, err)
	}
	shardedFeed(t, p1, sources, ckptAt, prod[ckptAt:killAt])
	p1.Kill()

	p2 := newRecoveryPipeline(t, dir, mutate)
	restored, err := p2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("Restore found no checkpoint")
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	shardedFeed(t, p2, sources, 0, prod)
	if err := p2.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := collectResult(p2)
	if err := p2.Stop(); err != nil {
		t.Fatal(err)
	}
	assertConservation(t, res, n)
	assertSameResult(t, res, golden)
}
