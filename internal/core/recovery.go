package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/bus"
	"loglens/internal/fsx"
	"loglens/internal/logmanager"
	"loglens/internal/logtypes"
	"loglens/internal/obs"
	"loglens/internal/recovery"
	"loglens/internal/stream"
)

// RecoveryConfig enables the crash-recovery plane (internal/recovery):
// at-least-once bus consumption with commits gated on processing,
// periodic atomic checkpoints, supervised component restarts with a
// circuit breaker, and a poison-record quarantine. Recovery is on when
// Dir is non-empty.
//
// Delivery semantics with recovery on: every log line is processed at
// least once; a restart restores the last checkpoint and replays the bus
// from its committed offsets, so counters, operator state, and the
// anomaly store land exactly where an uninterrupted run would have —
// work done after the checkpoint is simply redone. Heartbeat controller
// state is deliberately not checkpointed (heartbeats are periodic and
// best-effort; the next beat rebuilds it).
type RecoveryConfig struct {
	// Dir is the checkpoint directory; non-empty enables recovery.
	Dir string
	// Interval is the periodic checkpoint cadence on the pipeline clock
	// (0 = checkpoints only via explicit Checkpoint calls).
	Interval time.Duration
	// FS is the filesystem checkpoints are written through (default the
	// OS; the chaos harness injects storage faults here).
	FS fsx.FS
	// Keep is how many checkpoint generations to retain (default 2).
	Keep int
	// PoisonStrikes is K: a record that panics the operator K times
	// across redeliveries is quarantined to the deadletter topic
	// (default 3).
	PoisonStrikes int
	// PoisonMarker, when non-empty, makes the operator panic on any log
	// line containing it — the chaos harness's deterministic poison
	// injection for exercising the quarantine end to end. Only honored
	// with recovery enabled (a panicking record needs the quarantine to
	// have somewhere to go).
	PoisonMarker string
	// Supervisor knobs: restart backoff range, the sliding window and
	// restart budget of the circuit breaker, and the jitter seed. Zero
	// values take the internal/recovery defaults.
	BackoffBase   time.Duration
	BackoffMax    time.Duration
	RestartWindow time.Duration
	MaxRestarts   int
	Seed          int64
}

func (c RecoveryConfig) enabled() bool { return c.Dir != "" }

// engineName names the pipeline's one stream engine: the "engine" metric
// label, the "engine:main" supervisor, and the engine a checkpoint's
// operator state belongs to.
const engineName = "main"

// quiesceTimeout bounds the checkpoint barrier wait.
const quiesceTimeout = 30 * time.Second

// pendingCommit is the log manager's handled offsets after one poll
// batch, waiting for the engine to resolve the records that came out of
// it and every batch before.
type pendingCommit struct {
	offsets   map[int]int64 // partition -> next offset to consume
	watermark uint64        // commit when the engine frontier reaches this
}

// commitTracker implements the at-least-once commit gate: the log
// manager registers its handled offsets after each poll batch with the
// engine's accepted-seq watermark (Engine.Accepted after the batch's
// records were sent — the commit frontier's unit, which excludes
// seq-less heartbeats), and at every barrier the engine's BatchHook
// commits the newest registration whose watermark the engine's merged
// commit frontier has passed. The frontier is the longest prefix of
// accepted records — in acceptance order — that every partition worker
// has fully processed and sunk, so with partitions progressing at
// independent paces an offset still only commits once everything
// consumed before it has cleared the sink, whichever worker was last. A
// crash in between redelivers the uncommitted suffix.
type commitTracker struct {
	on *atomic.Bool // pipeline-level gate; Kill flips it off

	mu      sync.Mutex
	pending []pendingCommit
}

// register queues handled offsets behind the watermark.
func (t *commitTracker) register(offsets map[int]int64, watermark uint64) {
	t.mu.Lock()
	t.pending = append(t.pending, pendingCommit{offsets: offsets, watermark: watermark})
	t.mu.Unlock()
}

// due drops every registration the engine's commit frontier has reached
// and returns the newest one's offsets: nil when none has been reached,
// or when the gate is off.
func (t *commitTracker) due(resolved uint64) map[int]int64 {
	if !t.on.Load() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var offsets map[int]int64
	for len(t.pending) > 0 && t.pending[0].watermark <= resolved {
		offsets, t.pending = t.pending[0].offsets, t.pending[1:]
	}
	return offsets
}

// initRecovery builds the recovery plane. Called from New before the
// engines and the log manager so the hooks can be threaded into their
// configs.
func (p *Pipeline) initRecovery() error {
	rc := p.cfg.Recovery
	p.ckpt = recovery.NewManager(rc.FS, rc.Dir)
	if rc.Keep > 0 {
		p.ckpt.SetKeep(rc.Keep)
	}
	q, err := recovery.NewQuarantine(rc.PoisonStrikes, p.bus, p.ops.Events)
	if err != nil {
		return err
	}
	p.quarantine = q
	p.quarantinedTotal = p.ops.Metrics.Counter("core_quarantined_total")
	p.commits = &commitTracker{on: &p.commitsOn}
	return nil
}

func (p *Pipeline) supervisorConfig() recovery.SupervisorConfig {
	rc := p.cfg.Recovery
	return recovery.SupervisorConfig{
		Clock:       p.cfg.Clock,
		BackoffBase: rc.BackoffBase,
		BackoffMax:  rc.BackoffMax,
		Window:      rc.RestartWindow,
		MaxRestarts: rc.MaxRestarts,
		Seed:        rc.Seed,
		Events:      p.ops.Events,
	}
}

// runSupervised runs task under a restart supervisor when recovery is
// enabled (plain invocation otherwise). Each supervisor registers a
// health probe, so a restart storm degrades /readyz and an open breaker
// reports unhealthy.
func (p *Pipeline) runSupervised(name string, ctx context.Context, task func(context.Context) error) error {
	if p.ckpt == nil {
		return task(ctx)
	}
	sup := recovery.NewSupervisor(name, p.supervisorConfig())
	p.ops.Health.Register("supervisor:"+name, sup.Probe)
	return sup.Run(ctx, task)
}

// onOperatorPanic is the engine PanicHook: strike the record and requeue
// it for redelivery until the quarantine routes it to the deadletter
// topic. Quarantined records count toward conservation (lines == parsed
// + unparsed + quarantined).
func (p *Pipeline) onOperatorPanic(_ int, rec stream.Record, v any) bool {
	source, seq, raw := recordIdentity(rec)
	key := source + "#" + strconv.FormatUint(seq, 10)
	if p.quarantine.Strike(key, source, seq, raw, fmt.Sprint(v)) {
		p.quarantined.Add(1)
		p.quarantinedTotal.Inc()
		return false
	}
	return true
}

// checkPoison panics on chaos-injected poison lines
// (RecoveryConfig.PoisonMarker); the engine's panic containment and the
// quarantine take it from there.
func (p *Pipeline) checkPoison(l logtypes.Log) {
	if m := p.cfg.Recovery.PoisonMarker; m != "" && strings.Contains(l.Raw, m) {
		panic("chaos: poison record " + l.Source + "#" + strconv.FormatUint(l.Seq, 10))
	}
}

// recordIdentity extracts (source, seq, raw line) from a stream record
// for quarantine bookkeeping.
func recordIdentity(rec stream.Record) (string, uint64, string) {
	if l, ok := rec.Value.(logtypes.Log); ok {
		return l.Source, l.Seq, l.Raw
	}
	return rec.Key, 0, ""
}

// QuarantinedCount returns how many records the quarantine routed to the
// deadletter topic.
func (p *Pipeline) QuarantinedCount() uint64 { return p.quarantined.Load() }

// DeadLetters peeks up to max quarantined records from the deadletter
// topic (offset 0 onward) without consuming them. Empty when recovery is
// disabled or nothing was quarantined.
func (p *Pipeline) DeadLetters(max int) []bus.Message {
	msgs, err := p.bus.ReadFrom(recovery.DeadLetterTopic, 0, 0, max)
	if err != nil {
		return nil
	}
	return msgs
}

// Checkpoint quiesces the pipeline at a micro-batch barrier and writes
// one atomic checkpoint generation: committed offsets, cumulative
// counters, model bindings, per-partition operator state, pending
// quarantine strikes, and the store's manifest generation. On a running
// pipeline intake pauses for the barrier and resumes afterward; on a
// stopped pipeline the state is already quiescent. Returns the
// generation written.
func (p *Pipeline) Checkpoint() (uint64, error) {
	if p.ckpt == nil {
		return 0, fmt.Errorf("core: recovery disabled (no checkpoint dir)")
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	p.mu.Lock()
	running := p.running
	p.mu.Unlock()
	if running {
		defer p.logmgr.Resume()
		if err := p.quiesce(quiesceTimeout); err != nil {
			p.noteCheckpoint(0, err)
			return 0, err
		}
	}
	gen, err := p.ckpt.Save(p.buildCheckpoint(), p.store)
	p.noteCheckpoint(gen, err)
	return gen, err
}

// noteCheckpoint records the outcome for the health probe and the flight
// recorder.
func (p *Pipeline) noteCheckpoint(gen uint64, err error) {
	p.ckptStatusMu.Lock()
	p.ckptLastErr = err
	if err == nil {
		p.ckptLastGen = gen
	}
	p.ckptStatusMu.Unlock()
	if err != nil {
		p.ops.Events.Record(obs.EventStorageError, "checkpoint", err.Error(), 0)
		return
	}
	p.ops.Events.Record(obs.EventCheckpoint, "save", fmt.Sprintf("generation %d", gen), int64(gen))
}

// quiesce pauses the log manager, takes the cut at the offsets it has
// handled (the pause frontier), and waits until the engine has resolved
// everything forwarded and the group's committed offsets, as the broker
// reports them, reach the cut: committed == handled == resolved.
// Messages published after the pause belong to the next checkpoint.
func (p *Pipeline) quiesce(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cut, err := p.logmgr.Pause(ctx)
	if err != nil {
		return fmt.Errorf("core: checkpoint barrier timed out waiting for log-manager pause")
	}
	// Resolved can move before its barrier's commit hook returns, so the
	// committed offsets are checked too; the commit gate runs at every
	// barrier, empty ones included, before the barrier wakes this wait.
	if p.logmgr.Await(ctx, func() bool { return p.resolvedAll() && reached(p.logmgr.Committed(), cut) }) != nil {
		what := "offset commit"
		if !p.resolvedAll() {
			what = "engine resolution"
		}
		return fmt.Errorf("core: checkpoint barrier timed out waiting for %s", what)
	}
	return nil
}

// buildCheckpoint assembles the checkpoint at an already-quiescent
// barrier.
func (p *Pipeline) buildCheckpoint() *recovery.Checkpoint {
	cp := &recovery.Checkpoint{
		SavedAt: p.cfg.Clock.Now(),
		Offsets: make(map[string]map[string]int64),
		Counters: map[string]uint64{
			"lines":       p.linesTotal.Value(),
			"parsed":      p.parsedTotal.Value(),
			"unparsed":    p.unparsed.Load(),
			"heartbeats":  p.hbTotal.Value(),
			"anomalies":   p.anomalies.Load(),
			"quarantined": p.quarantined.Load(),
		},
		Quarantine: p.quarantine.Pending(),
	}
	if offs := p.bus.GroupOffsets(logmanager.Group); len(offs) > 0 {
		cp.Offsets[logmanager.Group] = offs
	}
	p.mu.Lock()
	if p.current != nil {
		cp.DefaultModelID = p.current.ID
	}
	if len(p.bySource) > 0 {
		cp.SourceModels = make(map[string]string, len(p.bySource))
		for source, m := range p.bySource {
			cp.SourceModels[source] = m.ID
		}
	}
	running := p.running
	p.mu.Unlock()
	cp.Engines = []recovery.EngineState{engineSnapshot(engineName, p.engine, running)}
	return cp
}

// engineSnapshot serializes one engine's per-partition operator state.
// On a running engine the capture happens at a micro-batch barrier (the
// same lock step model updates use); on a stopped one the partitions are
// quiescent and read directly.
func engineSnapshot(name string, e *stream.Engine, running bool) recovery.EngineState {
	es := recovery.EngineState{Name: name}
	capture := func(partition int, states *stream.StateMap) {
		ps := recovery.PartitionState{Index: partition}
		states.Range(func(key string, v any) bool {
			st, ok := v.(*coreOpState)
			if !ok {
				return true
			}
			ks := recovery.KeyState{Key: key}
			if st.model != nil {
				ks.ModelID = st.model.ID
			}
			if st.parser != nil {
				sv := st.parser.SaveState()
				ks.Parser = &sv
			}
			if st.detector != nil {
				sv := st.detector.SaveState()
				ks.Detector = &sv
			}
			if st.volume != nil {
				sv := st.volume.SaveState()
				ks.Volume = &sv
			}
			ps.Keys = append(ps.Keys, ks)
			return true
		})
		sort.Slice(ps.Keys, func(i, j int) bool { return ps.Keys[i].Key < ps.Keys[j].Key })
		es.Partitions = append(es.Partitions, ps)
	}
	if running {
		e.Inspect(capture)
	} else {
		for i := 0; i < e.Partitions(); i++ {
			if sm, err := e.StateMap(i); err == nil {
				capture(i, sm)
			}
		}
	}
	sort.Slice(es.Partitions, func(i, j int) bool { return es.Partitions[i].Index < es.Partitions[j].Index })
	return es
}

// Restore loads the newest checkpoint into a freshly constructed, not
// yet started pipeline: the store generation, cumulative counters, model
// bindings, per-partition operator state, pending quarantine strikes,
// and the committed bus offsets (installed via SeekGroup so consumption
// resumes exactly at the cut once the input is replayed onto the bus).
// Returns false when the checkpoint directory holds no checkpoint. A
// checkpoint whose operator state this pipeline cannot hold is rejected
// before anything is restored.
func (p *Pipeline) Restore() (bool, error) {
	if p.ckpt == nil {
		return false, fmt.Errorf("core: recovery disabled (no checkpoint dir)")
	}
	p.mu.Lock()
	running := p.running
	p.mu.Unlock()
	if running {
		return false, fmt.Errorf("core: restore requires a stopped pipeline")
	}
	cp, ok, err := p.ckpt.Load()
	if err != nil || !ok {
		return false, err
	}
	if err := p.checkEngines(cp.Engines); err != nil {
		return false, err
	}
	if err := p.ckpt.RestoreStore(cp, p.store); err != nil {
		return false, err
	}
	p.restoreCounters(cp.Counters)
	if err := p.restoreModels(cp); err != nil {
		return false, err
	}
	if err := p.restoreEngines(cp.Engines); err != nil {
		return false, err
	}
	p.quarantine.Restore(cp.Quarantine, cp.Counters["quarantined"])
	for group, offs := range cp.Offsets {
		for pk, off := range offs {
			topic, part, err := bus.SplitPartitionKey(pk)
			if err != nil {
				return false, err
			}
			p.bus.SeekGroup(group, topic, part, off)
		}
	}
	p.ckptStatusMu.Lock()
	p.ckptLastGen = cp.Generation
	p.ckptStatusMu.Unlock()
	p.ops.Events.Record(obs.EventCheckpoint, "restore",
		fmt.Sprintf("restored generation %d", cp.Generation), int64(cp.Generation))
	return true, nil
}

// restoreCounters rebases the cumulative conservation counters on a
// fresh pipeline's zeroed registry. Labeled per-type anomaly counters
// are not restored — they are diagnostics, not conservation inputs.
func (p *Pipeline) restoreCounters(c map[string]uint64) {
	p.linesTotal.Add(c["lines"])
	p.parsedTotal.Add(c["parsed"])
	p.unparsedTotal.Add(c["unparsed"])
	p.unparsed.Store(c["unparsed"])
	p.hbTotal.Add(c["heartbeats"])
	p.anomalies.Store(c["anomalies"])
	p.quarantined.Store(c["quarantined"])
	if p.quarantinedTotal != nil {
		p.quarantinedTotal.Add(c["quarantined"])
	}
}

// restoreModels rebinds the default and per-source models by ID against
// the restored model storage.
func (p *Pipeline) restoreModels(cp *recovery.Checkpoint) error {
	if cp.DefaultModelID != "" {
		m, err := p.manager.Load(cp.DefaultModelID)
		if err != nil {
			return fmt.Errorf("core: restore default model %q: %w", cp.DefaultModelID, err)
		}
		p.installModel("", m)
	}
	for source, id := range cp.SourceModels {
		m, err := p.manager.Load(id)
		if err != nil {
			return fmt.Errorf("core: restore model %q for source %q: %w", id, source, err)
		}
		p.installModel(source, m)
	}
	return nil
}

// checkEngines rejects operator state the engine cannot take: a section
// for another engine, or a partition index past the partition count.
func (p *Pipeline) checkEngines(engines []recovery.EngineState) error {
	for _, es := range engines {
		if es.Name != engineName {
			return fmt.Errorf("core: restore: checkpoint names engine %q, this pipeline runs only %q", es.Name, engineName)
		}
		for _, ps := range es.Partitions {
			if ps.Index < 0 || ps.Index >= p.engine.Partitions() {
				return fmt.Errorf("core: restore: engine %q partition %d is outside this pipeline's %d partitions (partition count changed?)",
					es.Name, ps.Index, p.engine.Partitions())
			}
		}
	}
	return nil
}

// restoreEngines seeds the engine's per-partition state maps with
// rebuilt operator states. Must run before Start (the partitions are not
// yet live).
func (p *Pipeline) restoreEngines(engines []recovery.EngineState) error {
	for _, es := range engines {
		for _, ps := range es.Partitions {
			sm, err := p.engine.StateMap(ps.Index)
			if err != nil {
				return fmt.Errorf("core: restore: engine %q partition %d: %w (partition count changed?)", es.Name, ps.Index, err)
			}
			for _, ks := range ps.Keys {
				st := p.rebuildOpState(ks)
				if st != nil {
					sm.Put(ks.Key, st)
				}
			}
		}
	}
	return nil
}

// rebuildOpState reconstructs one coreOpState from its saved form,
// binding it to the restored model for its source. Returns nil when the
// model is gone (the operator will lazily rebuild fresh state if the
// source reappears under a new model).
func (p *Pipeline) rebuildOpState(ks recovery.KeyState) *coreOpState {
	source := strings.TrimPrefix(ks.Key, "__op@")
	m := p.ModelFor(source)
	if m == nil {
		return nil
	}
	st := p.newOpState(m, source)
	if ks.Parser != nil {
		st.parser.RestoreState(*ks.Parser)
	}
	if ks.Detector != nil {
		st.detector.RestoreState(*ks.Detector)
	}
	if ks.Volume != nil && st.volume != nil {
		st.volume.RestoreState(*ks.Volume)
	}
	return st
}

// Kill simulates a crash: all loops stop immediately, no further offsets
// commit, in-flight and buffered records are abandoned. Unlike Stop
// nothing drains — the next pipeline recovers from the last checkpoint.
// Only available with recovery enabled (tests and chaos harnesses).
func (p *Pipeline) Kill() {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return
	}
	p.running = false
	svc := p.intakeSvc
	p.mu.Unlock()
	p.commitsOn.Store(false)
	if svc != nil {
		// Crash semantics: the front door aborts without draining —
		// blocked admissions shed, connections close.
		svc.Close()
	}
	// Close the engine first so racing Sends fail fast (ErrClosed)
	// instead of queueing on input channels nobody drains, then abort
	// its run loop without draining.
	p.engine.Close()
	if p.engineCancel != nil {
		p.engineCancel()
	}
	p.cancel()
	<-p.runErr
	p.wg.Wait()
	// Crash semantics extend to storage: release the engine without
	// flushing — unsynced mutations die with the process, exactly what
	// the recovery tests must survive.
	p.store.Abort()
	p.ops.Events.Record(obs.EventShutdown, "kill", "crash simulated: loops aborted, nothing drained", 0)
}
