package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/anomaly"
	"loglens/internal/chaos"
	"loglens/internal/clock"
	"loglens/internal/obs"
	"loglens/internal/recovery"
	"loglens/internal/store"
	"loglens/internal/testutil"
)

// newRecoveryPipeline builds a recovery-enabled pipeline on the wall
// clock (batches must fire on their own so checkpoint barriers resolve).
func newRecoveryPipeline(t *testing.T, dir string, mutate func(*Config)) *Pipeline {
	t.Helper()
	cfg := Config{
		DisableHeartbeat: true,
		Recovery:         RecoveryConfig{Dir: dir},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func feed(t *testing.T, ag *agent.Agent, lines []string) {
	t.Helper()
	for _, l := range lines {
		if err := ag.Send(l); err != nil {
			t.Fatal(err)
		}
	}
}

// recoveryResult is the end-state a run is judged by: the conservation
// counters and the multiset of stored anomalies.
type recoveryResult struct {
	lines, parsed, unparsed, quarantined, anomalies uint64
	sig                                             []string
}

func collectResult(p *Pipeline) recoveryResult {
	snap := p.Metrics().Snapshot()
	return recoveryResult{
		lines:       snap.Counter("core_lines_total"),
		parsed:      snap.Counter("core_parsed_total"),
		unparsed:    snap.Counter("core_unparsed_total"),
		quarantined: p.QuarantinedCount(),
		anomalies:   p.AnomalyCount(),
		sig:         anomalySignature(p),
	}
}

// anomalySignature is the stored-anomaly multiset, timestamp-free (the
// wall clock makes arrival times run-dependent; identity does not).
func anomalySignature(p *Pipeline) []string {
	hits := p.Anomalies(store.Query{})
	sig := make([]string, 0, len(hits))
	for _, h := range hits {
		sig = append(sig, fmt.Sprintf("%v|%v|%v|%v|%v",
			h.Doc["type"], h.Doc["source"], h.Doc["eventId"], h.Doc["automaton"], h.Doc["logCount"]))
	}
	sort.Strings(sig)
	return sig
}

func assertConservation(t *testing.T, res recoveryResult, wantLines uint64) {
	t.Helper()
	if res.lines != wantLines {
		t.Errorf("core_lines_total = %d, want %d", res.lines, wantLines)
	}
	if res.parsed+res.unparsed+res.quarantined != res.lines {
		t.Errorf("conservation broken: parsed %d + unparsed %d + quarantined %d != lines %d",
			res.parsed, res.unparsed, res.quarantined, res.lines)
	}
}

func assertSameResult(t *testing.T, got, golden recoveryResult) {
	t.Helper()
	if got.lines != golden.lines || got.parsed != golden.parsed ||
		got.unparsed != golden.unparsed || got.quarantined != golden.quarantined {
		t.Errorf("counters diverge from golden: got %+v, want %+v", got, golden)
	}
	if got.anomalies != golden.anomalies {
		t.Errorf("anomaly count = %d, golden %d", got.anomalies, golden.anomalies)
	}
	if len(got.sig) != len(golden.sig) {
		t.Fatalf("stored anomalies = %d, golden %d", len(got.sig), len(golden.sig))
	}
	for i := range got.sig {
		if got.sig[i] != golden.sig[i] {
			t.Errorf("anomaly %d diverges: got %q, golden %q", i, got.sig[i], golden.sig[i])
		}
	}
}

// goldenRun processes the whole corpus uninterrupted on a
// recovery-enabled pipeline and returns the reference end state.
func goldenRun(t *testing.T, prod []string) recoveryResult {
	t.Helper()
	training, _ := conservationCorpus(0, 0)
	p := newRecoveryPipeline(t, t.TempDir(), nil)
	if _, _, err := p.Train("recovery", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag, err := p.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag, prod)
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := collectResult(p)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	return res
}

// crashRun checkpoints after ckptAt lines, feeds up to killAt, crashes
// the pipeline (Kill: no drain, no commits), then builds a fresh
// pipeline on the same checkpoint directory, restores, replays the full
// corpus (the committed prefix is skipped via the restored offsets), and
// returns the end state. A negative ckptAt crashes before any checkpoint:
// the restart finds none, trains afresh and replays from the start.
func crashRun(t *testing.T, prod []string, ckptAt, killAt int) recoveryResult {
	if ckptAt < 0 {
		return crashRunUncheckpointed(t, prod, killAt)
	}
	t.Helper()
	training, _ := conservationCorpus(0, 0)
	dir := t.TempDir()

	p1 := newRecoveryPipeline(t, dir, nil)
	if _, _, err := p1.Train("recovery", training); err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	ag1, err := p1.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag1, prod[:ckptAt])
	if err := p1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen, err := p1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("checkpoint generation 0")
	}
	// Post-checkpoint traffic is in flight (bus, engine queues, maybe
	// committed) when the crash hits; none of it may be lost or double
	// up in the end state.
	feed(t, ag1, prod[ckptAt:killAt])
	p1.Kill()

	p2 := newRecoveryPipeline(t, dir, nil)
	restored, err := p2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("Restore found no checkpoint")
	}
	if m := p2.Model(); m == nil || m.ID != "recovery" {
		t.Fatalf("restored model = %v, want %q", m, "recovery")
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	ag2, err := p2.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The operator replays the whole retained input after a crash; the
	// restored offsets skip everything the checkpoint already covers
	// (partitioning is deterministic, so offsets line up).
	feed(t, ag2, prod)
	if err := p2.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := collectResult(p2)
	if err := p2.Stop(); err != nil {
		t.Fatal(err)
	}
	return res
}

// crashRunUncheckpointed feeds killAt lines, syncs the store's WAL to
// its file (the 32 KiB buffer or the flush loop does that on its own
// long before the first checkpoint of a real run) and crashes; the
// restart finds no checkpoint, trains afresh and replays the whole
// corpus. Whatever the killed run stored must not come back beside it.
func crashRunUncheckpointed(t *testing.T, prod []string, killAt int) recoveryResult {
	t.Helper()
	training, _ := conservationCorpus(0, 0)
	dir := t.TempDir()

	p1 := newRecoveryPipeline(t, dir, nil)
	if _, _, err := p1.Train("recovery", training); err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	ag1, err := p1.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag1, prod[:killAt])
	if err := p1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p1.AnomalyCount() == 0 {
		t.Fatal("the killed run stored no anomalies; the case needs some to notice a duplicate")
	}
	if err := p1.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	p1.Kill()

	p2 := newRecoveryPipeline(t, dir, nil)
	if restored, err := p2.Restore(); err != nil || restored {
		t.Fatalf("Restore = %v, %v; want no checkpoint", restored, err)
	}
	if _, _, err := p2.Train("recovery", training); err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	ag2, err := p2.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag2, prod)
	if err := p2.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := collectResult(p2)
	if err := p2.Stop(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCrashRecoveryKillPoints: kill the pipeline at several points
// relative to the last checkpoint, restore from it, replay, and require
// the exact end state of the uninterrupted golden run — same
// conservation balance, same anomaly multiset (none missing, none
// duplicated).
func TestCrashRecoveryKillPoints(t *testing.T) {
	const nParsed, nUnparsed = 40, 8
	_, prod := conservationCorpus(nParsed, nUnparsed)
	n := uint64(len(prod))

	golden := goldenRun(t, prod)
	assertConservation(t, golden, n)
	if golden.unparsed != nUnparsed {
		t.Fatalf("golden unparsed = %d, want %d", golden.unparsed, nUnparsed)
	}

	points := []struct {
		name           string
		ckptAt, killAt int
	}{
		{"no-checkpoint-kill-late", -1, 44},
		{"empty-checkpoint-kill-early", 0, 12},
		{"mid-checkpoint-kill-mid", 20, 35},
		{"late-checkpoint-kill-at-end", 40, len(prod)},
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			res := crashRun(t, prod, pt.ckptAt, pt.killAt)
			assertConservation(t, res, n)
			assertSameResult(t, res, golden)
		})
	}
}

// TestRestoreKeepsAnomalyScanOrder: anomalies with equal timestamps
// list newest first by scan order, the tie-break of a sorted search, so
// a restore must give that order back, not only the same documents: the
// dashboard's newest-100 listing reads the same after a crash and a
// restore as before. The pipeline sets only a checkpoint directory.
func TestRestoreKeepsAnomalyScanOrder(t *testing.T) {
	training, _ := conservationCorpus(0, 0)
	dir := t.TempDir()
	p1 := newRecoveryPipeline(t, dir, nil)
	if _, _, err := p1.Train("recovery", training); err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2016, 2, 23, 9, 0, 31, 0, time.UTC)
	for i := 0; i < 12; i++ {
		p1.Store().Index(AnomaliesIndex).PutAuto(store.Document{"type": "missing-end-state", "ts": ts, "n": i})
	}
	newest := store.Query{SortBy: "ts", Desc: true, Limit: 100}
	ids := func(hits []store.Hit) []string {
		out := make([]string, len(hits))
		for i, h := range hits {
			out[i] = h.ID
		}
		return out
	}
	want := ids(p1.Anomalies(newest))
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p1.Kill()

	p2 := newRecoveryPipeline(t, dir, nil)
	if restored, err := p2.Restore(); err != nil || !restored {
		t.Fatalf("Restore = %v, %v", restored, err)
	}
	if got := ids(p2.Anomalies(newest)); !reflect.DeepEqual(got, want) {
		t.Errorf("newest anomalies after restore = %v, want %v", got, want)
	}
}

// TestRestoredSourceKeepsFreshness: a source whose operator state came
// back from a checkpoint still advances its tenant freshness watermark,
// the row /api/latency and freshness_*_lag_ms{tenant} report.
func TestRestoredSourceKeepsFreshness(t *testing.T) {
	training, prod := conservationCorpus(40, 0)
	dir := t.TempDir()
	p1 := newRecoveryPipeline(t, dir, nil)
	if _, _, err := p1.Train("recovery", training); err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	ag1, err := p1.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag1, prod[:20])
	if err := p1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p1.Kill()

	p2 := newRecoveryPipeline(t, dir, nil)
	if restored, err := p2.Restore(); err != nil || !restored {
		t.Fatalf("Restore = %v, %v", restored, err)
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	defer p2.Stop()
	ag2, err := p2.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the whole input: the checkpointed prefix is skipped, the
	// rest reaches the restored "web" state.
	resumed := time.Now()
	feed(t, ag2, prod)
	if err := p2.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := p2.Metrics().Snapshot().Counter("core_parsed_total"); got != uint64(len(prod)) {
		t.Fatalf("core_parsed_total = %d, want %d", got, len(prod))
	}
	_, tenants := p2.Latency().Watermarks()
	for _, tw := range tenants {
		if tw.Tenant == "web" {
			if tw.ProcTime.Before(resumed) {
				t.Fatalf("web watermark %v predates the resumed input (%v)", tw.ProcTime, resumed)
			}
			return
		}
	}
	t.Fatalf("no tenant watermark for the restored source: %+v", tenants)
}

// TestCrashRecoveryRejectedRestoreMutatesNothing: a checkpoint this
// pipeline cannot hold — operator state for more partitions than it
// runs, or for engines other than "main" — must be rejected before the
// store, counters, models or partition state are touched. The store
// lives in the checkpoint directory, so a new pipeline opens it holding
// what the killed one committed; the rejected restore must leave it so.
func TestCrashRecoveryRejectedRestoreMutatesNothing(t *testing.T) {
	const nParsed, nUnparsed = 20, 4
	const sources = 8
	training, prod := conservationCorpus(nParsed, nUnparsed)
	dir := t.TempDir()
	eight := func(cfg *Config) { cfg.Partitions = 8 }

	p1 := newRecoveryPipeline(t, dir, eight)
	if _, _, err := p1.Train("recovery-8p", training); err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	shardedFeed(t, p1, sources, 0, prod)
	if err := p1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if gen, err := p1.Checkpoint(); err != nil || gen == 0 {
		t.Fatalf("checkpoint: gen %d, err %v", gen, err)
	}
	if got := p1.AnomalyCount(); got == 0 {
		t.Fatal("checkpointed run found no anomalies; the test needs some to notice a leak")
	}
	p1.Kill()

	// opened is what a pipeline's store holds before its Restore.
	type opened struct {
		anomalies []store.Hit
		gen       uint64
	}
	open := func(p *Pipeline) opened {
		return opened{p.Anomalies(store.Query{}), p.Store().Generation()}
	}
	assertUntouched := func(t *testing.T, p *Pipeline, before opened) {
		t.Helper()
		snap := p.Metrics().Snapshot()
		for _, name := range []string{"core_lines_total", "core_parsed_total", "core_unparsed_total", "core_heartbeats_total"} {
			if got := snap.Counter(name); got != 0 {
				t.Errorf("%s = %d after rejected restore, want 0", name, got)
			}
		}
		if got := p.AnomalyCount(); got != 0 {
			t.Errorf("AnomalyCount = %d after rejected restore, want 0", got)
		}
		if got := p.UnparsedCount(); got != 0 {
			t.Errorf("UnparsedCount = %d after rejected restore, want 0", got)
		}
		if m := p.Model(); m != nil {
			t.Errorf("Model = %q after rejected restore, want none", m.ID)
		}
		if len(before.anomalies) == 0 {
			t.Error("the reopened store holds no anomalies; the test needs some to notice a change")
		}
		if hits := p.Anomalies(store.Query{}); !reflect.DeepEqual(hits, before.anomalies) {
			t.Errorf("anomaly index holds %d documents after rejected restore, want the %d it opened with", len(hits), len(before.anomalies))
		}
		if gen := p.Store().Generation(); gen != before.gen {
			t.Errorf("store generation %d after rejected restore, want %d", gen, before.gen)
		}
		for i := 0; i < p.Engine().Partitions(); i++ {
			sm, err := p.Engine().StateMap(i)
			if err != nil {
				t.Fatal(err)
			}
			if sm.Len() != 0 {
				t.Errorf("partition %d seeded with %d states after rejected restore", i, sm.Len())
			}
		}
	}

	t.Run("partition-count", func(t *testing.T) {
		p := newRecoveryPipeline(t, dir, func(cfg *Config) { cfg.Partitions = 4 })
		before := open(p)
		restored, err := p.Restore()
		if err == nil || restored {
			t.Fatalf("Restore into 4 partitions = (%v, %v), want a partition-count error", restored, err)
		}
		if !strings.Contains(err.Error(), "partition") {
			t.Errorf("error %q does not name the partition mismatch", err)
		}
		assertUntouched(t, p, before)
	})

	t.Run("foreign-engines", func(t *testing.T) {
		// Rewrite the checkpoint as the two-engine parse/detect layout:
		// same partitions, same store snapshot, engines renamed.
		cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, strings.TrimSpace(string(cur)))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var cp recovery.Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		if len(cp.Engines) != 1 || cp.Engines[0].Name != "main" {
			t.Fatalf("checkpoint engines = %+v, want one named main", cp.Engines)
		}
		parse, detect := cp.Engines[0], cp.Engines[0]
		parse.Name, detect.Name = "parse", "detect"
		cp.Engines = []recovery.EngineState{parse, detect}
		if data, err = json.Marshal(&cp); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		p := newRecoveryPipeline(t, dir, eight)
		before := open(p)
		restored, err := p.Restore()
		if err == nil || restored {
			t.Fatalf("Restore of a parse/detect checkpoint = (%v, %v), want an engine-name error", restored, err)
		}
		if !strings.Contains(err.Error(), `"parse"`) {
			t.Errorf("error %q does not name the foreign engine", err)
		}
		assertUntouched(t, p, before)
	})
}

// TestCommitGateWithLiveHeartbeats pins the unit contract of the commit
// gate: a heartbeat queues a copy to every partition, and the marks the
// gate registers count those copies exactly as the workers retire them.
// A mark in another unit — a count that takes each heartbeat once, or
// not at all — drifts from what the workers retire after the first
// heartbeat; one that drifts high is never reached, and the offsets
// registered behind it never commit — Drain and every later Checkpoint hang on
// committed lag. Regression for a hang found driving the full binary,
// where the wall-clock heartbeat controller interleaves with file
// replay.
func TestCommitGateWithLiveHeartbeats(t *testing.T) {
	// The subtest name is kept from when the test also ran a staged
	// topology; the fused pipeline is now the only one.
	t.Run("staged=false", func(t *testing.T) {
		const nParsed, nUnparsed = 20, 4
		training, prod := conservationCorpus(nParsed, nUnparsed)
		hbAt := time.Date(2016, 2, 23, 10, 0, 30, 0, time.UTC)

		p := newRecoveryPipeline(t, t.TempDir(), func(cfg *Config) {
			cfg.Partitions = 4
		})
		if _, _, err := p.Train("recovery", training); err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		ag, err := p.Agent("web", 0)
		if err != nil {
			t.Fatal(err)
		}
		// Heartbeats before, between, and after the log traffic: each
		// poll batch around them registers offsets that must still
		// commit once the heartbeat copies have retired.
		p.InjectHeartbeat("web", hbAt)
		feed(t, ag, prod[:len(prod)/2])
		p.InjectHeartbeat("web", hbAt.Add(time.Second))
		feed(t, ag, prod[len(prod)/2:])
		p.InjectHeartbeat("web", hbAt.Add(2*time.Second))
		if err := p.Drain(30 * time.Second); err != nil {
			t.Fatalf("drain with live heartbeats: %v", err)
		}
		if _, err := p.Checkpoint(); err != nil {
			t.Fatalf("checkpoint with live heartbeats: %v", err)
		}
		// The gate itself: every consumed offset commits once the
		// engine retires the records around the heartbeats.
		deadline := time.Now().Add(10 * time.Second)
		for p.logmgrLag() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("committed lag stuck at %d with live heartbeats", p.logmgrLag())
			}
			time.Sleep(time.Millisecond)
		}
		res := collectResult(p)
		assertConservation(t, res, uint64(len(prod)))
		if err := p.Stop(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPoisonQuarantineEndToEnd: a record that panics the operator on
// every delivery must land on the deadletter topic after exactly K
// strikes — queryable with its error context — while every other record
// on the partition keeps flowing, and the balance closes with the
// quarantined term.
func TestPoisonQuarantineEndToEnd(t *testing.T) {
	const nParsed, nUnparsed = 20, 4
	training, prod := conservationCorpus(nParsed, nUnparsed)
	// Two poison lines surrounded by healthy traffic on the same
	// source (hence the same partition): a stalled partition would
	// strand the suffix and break the balance.
	prod = append(prod[:10], append([]string{
		"POISON pill one", "POISON pill two",
	}, prod[10:]...)...)
	n := uint64(len(prod))

	p := newRecoveryPipeline(t, t.TempDir(), func(cfg *Config) {
		cfg.Recovery.PoisonMarker = "POISON"
		cfg.Recovery.PoisonStrikes = 3
		cfg.Ops = obs.New(clock.New())
	})
	if _, _, err := p.Train("poison", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag, err := p.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag, prod)
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.QuarantinedCount() == 2
	}, "poison records never quarantined")
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := collectResult(p)
	assertConservation(t, res, n)
	if res.parsed != nParsed || res.unparsed != nUnparsed {
		t.Errorf("parsed/unparsed = %d/%d, want %d/%d — a poison record stalled healthy traffic",
			res.parsed, res.unparsed, nParsed, nUnparsed)
	}

	letters := p.DeadLetters(10)
	if len(letters) != 2 {
		t.Fatalf("deadletter topic holds %d records, want 2", len(letters))
	}
	for _, m := range letters {
		if m.Headers[recovery.HeaderDLSource] != "web" {
			t.Errorf("deadletter source = %q, want web", m.Headers[recovery.HeaderDLSource])
		}
		if m.Headers[recovery.HeaderDLStrikes] != "3" {
			t.Errorf("deadletter strikes = %q, want 3", m.Headers[recovery.HeaderDLStrikes])
		}
		if !strings.Contains(m.Headers[recovery.HeaderDLError], "poison record") {
			t.Errorf("deadletter error context = %q", m.Headers[recovery.HeaderDLError])
		}
		if !strings.HasPrefix(string(m.Value), "POISON pill") {
			t.Errorf("deadletter payload = %q", m.Value)
		}
	}
	// Each poison record was struck exactly K times: 2 records x 3
	// strikes = 6 operator panics, 4 of them requeues.
	em := p.Engine().Metrics()
	if em.OperatorPanics != 6 {
		t.Errorf("operator panics = %d, want 6", em.OperatorPanics)
	}
	if em.Retried != 4 {
		t.Errorf("retried = %d, want 4", em.Retried)
	}
	if evs := p.Ops().Events.Events(obs.EventQuery{Type: obs.EventQuarantine}); len(evs) != 2 {
		t.Errorf("quarantine events = %d, want 2", len(evs))
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorRestartEndToEnd: a panic escaping the engine loop (here
// via an anomaly callback) is contained by the supervisor, which
// restarts the loop; traffic sent afterwards still processes, and the
// crash leaves a worker-crash event plus a degraded supervisor probe
// behind.
func TestSupervisorRestartEndToEnd(t *testing.T) {
	const nParsed, nUnparsed = 20, 3
	training, prod := conservationCorpus(nParsed, nUnparsed)

	ops := obs.New(clock.New())
	p := newRecoveryPipeline(t, t.TempDir(), func(cfg *Config) {
		cfg.Ops = ops
		cfg.Recovery.BackoffBase = time.Millisecond
	})
	if _, _, err := p.Train("supervised", training); err != nil {
		t.Fatal(err)
	}
	bombed := false
	p.OnAnomaly(func(anomaly.Record) {
		if !bombed {
			bombed = true
			panic("test: anomaly callback bomb")
		}
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag, err := p.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first unparsed line detonates the bomb inside the engine
	// loop's sink; the supervisor must bring the loop back.
	feed(t, ag, []string{"segfault boom at 0x0 in worker thread"})
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return len(ops.Events.Events(obs.EventQuery{Type: obs.EventWorkerCrash})) > 0
	}, "engine crash never recorded")
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.Engine().Running()
	}, "supervisor never restarted the engine loop")

	feed(t, ag, prod)
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := p.Metrics().Snapshot()
	if got := snap.Counter("core_parsed_total"); got != nParsed {
		t.Errorf("core_parsed_total = %d, want %d after restart", got, nParsed)
	}

	_, probes := ops.Health.Check()
	var supProbe *obs.ProbeResult
	for name, pr := range probes {
		if name == "supervisor:engine:main" {
			r := pr
			supProbe = &r
		}
	}
	if supProbe == nil {
		t.Fatal("supervisor probe not registered")
	}
	if supProbe.Status != obs.Degraded {
		t.Errorf("supervisor probe = %v (%s), want degraded inside the restart window",
			supProbe.Status, supProbe.Detail)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFailureKeepsPrevious: when the disk gives out mid-save
// (chaos ENOSPC), the previous checkpoint generation must stay
// restorable, the error must surface to the caller, and the checkpoint
// health probe must go degraded. The store lives in the checkpoint
// directory, on the same disk. Checkpoints are incremental — a save
// writes what changed since the last one — so a burst of documents as
// large as the whole first run lands between the two saves.
func TestCheckpointFailureKeepsPrevious(t *testing.T) {
	const nParsed, nUnparsed = 20, 4
	training, prod := conservationCorpus(nParsed, nUnparsed)

	// Measure how many bytes a run through one checkpoint of this
	// workload writes, store included, using an unlimited fault FS as a
	// pass-through byte counter.
	meter := chaos.NewFaultFS(nil, chaos.FSConfig{}, nil)
	p1 := newRecoveryPipeline(t, t.TempDir(), func(cfg *Config) {
		cfg.Recovery.FS = meter
	})
	if _, _, err := p1.Train("ckptfail", training); err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	ag, err := p1.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag, prod)
	if err := p1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oneCheckpoint := meter.Stats().Bytes

	// Same workload against a budgeted disk: generation 1 fits, the
	// second save runs out of space partway through.
	dir := t.TempDir()
	ops := obs.New(clock.New())
	faulty := chaos.NewFaultFS(nil, chaos.FSConfig{ENOSPCAfter: oneCheckpoint + oneCheckpoint/2}, ops.Events)
	p2 := newRecoveryPipeline(t, dir, func(cfg *Config) {
		cfg.Recovery.FS = faulty
		cfg.Ops = ops
	})
	if _, _, err := p2.Train("ckptfail", training); err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	ag2, err := p2.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag2, prod)
	if err := p2.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen1, err := p2.Checkpoint()
	if err != nil {
		t.Fatalf("first checkpoint should fit the budget: %v", err)
	}
	p2.Store().Index(AnomaliesIndex).Put("burst", store.Document{"reason": strings.Repeat("x", int(oneCheckpoint))})
	if _, err := p2.Checkpoint(); !errors.Is(err, chaos.ErrNoSpace) {
		t.Fatalf("second checkpoint = %v, want it to exhaust the budget", err)
	}
	_, probes := ops.Health.Check()
	if pr, ok := probes["checkpoint"]; !ok || pr.Status != obs.Degraded {
		t.Errorf("checkpoint probe = %+v, want degraded after a failed save", pr)
	}
	// The disk is still full, so the final seal of a clean stop fails
	// too, and says so.
	if err := p2.Stop(); !errors.Is(err, chaos.ErrNoSpace) {
		t.Errorf("Stop on a full disk = %v, want ErrNoSpace", err)
	}

	// Generation 1 survived the torn save and restores cleanly.
	p3 := newRecoveryPipeline(t, dir, nil)
	restored, err := p3.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("previous generation lost after failed save")
	}
	snap := p3.Metrics().Snapshot()
	if got := snap.Counter("core_lines_total"); got != uint64(len(prod)) {
		t.Errorf("restored core_lines_total = %d, want %d (generation %d)", got, len(prod), gen1)
	}
	if _, ok := p3.Store().Index(AnomaliesIndex).Get("burst"); ok {
		t.Error("the document put after generation 1 survived its restore")
	}
}

// TestRecoveryDisabled: without a checkpoint dir the recovery surface
// stays inert — explicit errors, empty deadletter, no commit gating.
func TestRecoveryDisabled(t *testing.T) {
	p, err := New(Config{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err == nil {
		t.Error("Checkpoint should fail with recovery disabled")
	}
	if _, err := p.Restore(); err == nil {
		t.Error("Restore should fail with recovery disabled")
	}
	if got := p.DeadLetters(10); len(got) != 0 {
		t.Errorf("DeadLetters = %d messages, want 0", len(got))
	}
	if got := p.QuarantinedCount(); got != 0 {
		t.Errorf("QuarantinedCount = %d, want 0", got)
	}
}
