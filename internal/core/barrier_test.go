package core

import (
	"strings"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/clock"
	"loglens/internal/testutil"
)

// sustain ships corpus lines, each followed by a heartbeat, until the
// returned stop is called, which reports how many lines went out. One
// line and one heartbeat every 200µs keeps traffic in flight through
// every barrier. The heartbeats carry a log time before the
// corpus, so they expire nothing.
func sustain(t *testing.T, p *Pipeline, ag *agent.Agent, lines []string) (stop func() int) {
	t.Helper()
	hbAt := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	quit, sent := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-quit:
				sent <- n
				return
			default:
			}
			if err := ag.Send(lines[n%len(lines)]); err != nil {
				t.Error(err)
			}
			n++
			p.InjectHeartbeat("web", hbAt)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() int {
		close(quit)
		return <-sent
	}
}

// published counts the messages on the logs topic.
func (p *Pipeline) published() int64 {
	var n int64
	for part := 0; part < p.engine.Partitions(); part++ {
		end, _ := p.bus.EndOffset(agent.LogsTopic, part)
		n += end
	}
	return n
}

func startRecoveryPipeline(t *testing.T, mutate func(*Config)) (*Pipeline, *agent.Agent, []string) {
	t.Helper()
	training, prod := conservationCorpus(40, 8)
	p := newRecoveryPipeline(t, t.TempDir(), mutate)
	if _, _, err := p.Train("barrier", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	ag, err := p.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	return p, ag, prod
}

// TestCheckpointBarrierUnderSustainedInput: lines and heartbeats keep
// arriving during every barrier. Each checkpoint cuts at the log
// manager's pause frontier, so it succeeds after a micro-batch or two
// instead of waiting for a committed lag of zero that new traffic never
// lets it reach, and the consumer catches up between checkpoints.
func TestCheckpointBarrierUnderSustainedInput(t *testing.T) {
	p, ag, prod := startRecoveryPipeline(t, nil)
	shipped, during := 0, int64(0)
	for i := 1; i <= 5; i++ {
		stop := sustain(t, p, ag, prod)
		testutil.WaitUntil(t, 10*time.Second, func() bool { return p.logmgrLag() > 0 },
			"no traffic in flight before the checkpoint")
		before := p.published()
		began := time.Now()
		gen, err := p.Checkpoint()
		took := time.Since(began)
		during += p.published() - before
		shipped += stop()
		if err != nil {
			t.Fatalf("checkpoint %d under sustained input: %v", i, err)
		}
		if gen != uint64(i) || took > quiesceTimeout/10 {
			t.Fatalf("checkpoint %d: generation %d after %v", i, gen, took)
		}
		t.Logf("checkpoint %d took %v", i, took)
		testutil.WaitUntil(t, 10*time.Second, func() bool { return p.logmgrLag() == 0 },
			"committed lag never returned to 0 after the checkpoint")
	}
	if during == 0 {
		t.Fatal("nothing was published while a barrier ran")
	}
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	assertConservation(t, collectResult(p), uint64(shipped))
}

// TestCheckpointBarrierFailureKeepsConsuming: a barrier that times out —
// commits held off, so the committed offsets never reach the cut — and
// the Resume that Checkpoint then runs leave the log manager consuming:
// lines published afterwards are handled before the next checkpoint,
// which succeeds.
func TestCheckpointBarrierFailureKeepsConsuming(t *testing.T) {
	p, ag, prod := startRecoveryPipeline(t, nil)
	feed(t, ag, prod[:20])
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	p.commitsOn.Store(false)
	feed(t, ag, prod[20:30])
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	err := p.quiesce(100 * time.Millisecond)
	p.logmgr.Resume() // as Checkpoint does, whatever the barrier's outcome
	if err == nil || !strings.Contains(err.Error(), "offset commit") {
		t.Fatalf("barrier with commits held off: %v, want an offset-commit timeout", err)
	}
	p.commitsOn.Store(true)
	feed(t, ag, prod[30:])
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatalf("lines published after the failed barrier: %v", err)
	}
	if gen, err := p.Checkpoint(); err != nil || gen != 1 {
		t.Fatalf("checkpoint after the failed barrier: generation %d, %v", gen, err)
	}
	if lag := p.logmgrLag(); lag != 0 {
		t.Fatalf("committed lag %d after the checkpoint", lag)
	}
	assertConservation(t, collectResult(p), uint64(len(prod)))
}

// TestCheckpointScheduleAfterEachEnd: the periodic loop schedules each
// checkpoint one Interval after the previous one ended, on the injected
// clock. A checkpoint held past several intervals is not followed by a
// buffered catch-up tick.
func TestCheckpointScheduleAfterEachEnd(t *testing.T) {
	const every = time.Minute
	fc := clock.NewFake()
	p, _, _ := startRecoveryPipeline(t, func(cfg *Config) {
		cfg.Clock = fc
		cfg.Recovery.Interval = every
	})
	gen := func() uint64 {
		p.ckptStatusMu.Lock()
		defer p.ckptStatusMu.Unlock()
		return p.ckptLastGen
	}
	scheduled := func() bool {
		due := fc.Now().Add(every)
		for _, d := range fc.Deadlines() {
			if d.Equal(due) {
				return true
			}
		}
		return false
	}
	testutil.WaitUntil(t, 10*time.Second, scheduled, "first checkpoint never scheduled")

	// The first checkpoint fires, then is held for two and a half more
	// intervals.
	p.ckptMu.Lock()
	fc.Advance(every)
	fc.Advance(5 * every / 2)
	p.ckptMu.Unlock()
	testutil.WaitUntil(t, 10*time.Second, func() bool { return gen() == 1 },
		"held checkpoint never completed")
	testutil.WaitUntil(t, 10*time.Second, scheduled,
		"next checkpoint not scheduled one interval after the held one ended")
	if g := gen(); g != 1 {
		t.Fatalf("generation %d straight after the held checkpoint: a catch-up tick fired", g)
	}
	fc.Advance(every)
	testutil.WaitUntil(t, 10*time.Second, func() bool { return gen() == 2 },
		"scheduled checkpoint never ran")
}
