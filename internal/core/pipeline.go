// Package core wires the LogLens components of Figure 1 into a runnable
// real-time log-analysis service: agents ship raw logs over the bus, the
// log manager identifies sources and archives logs, the streaming engine
// runs the stateless parser and the stateful sequence detector per
// partition under a broadcast model, the heartbeat controller expires open
// states, the model manager/controller rebuild and hot-swap models with
// zero downtime, and anomalies land in the anomaly storage and user
// callbacks.
//
// This package is the public API of the library: construct a Pipeline,
// Train it on "correct" logs, Start it, and stream production logs in.
package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/agent"
	"loglens/internal/anomaly"
	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/heartbeat"
	"loglens/internal/intake"
	"loglens/internal/logmanager"
	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/modelmgr"
	"loglens/internal/obs"
	"loglens/internal/recovery"
	"loglens/internal/seqdetect"
	"loglens/internal/store"
	"loglens/internal/stream"
	"loglens/internal/volume"
)

// ModelBroadcastID is the broadcast-variable ID the default model is
// published under; per-source models use ModelBroadcastID + "@" + source
// (§V-B: partitioning groups logs with "the same model, source").
const ModelBroadcastID = "model"

func modelIDFor(source string) string {
	if source == "" {
		return ModelBroadcastID
	}
	return ModelBroadcastID + "@" + source
}

// AnomaliesIndex is the anomaly-storage index name.
const AnomaliesIndex = "anomalies"

// Config tunes a Pipeline. The zero value is usable.
type Config struct {
	// Partitions is the streaming parallelism (default 4).
	Partitions int
	// BatchInterval is the micro-batch window (default 10ms).
	BatchInterval time.Duration
	// Seq tunes the stateful detector.
	Seq seqdetect.Config
	// Volume tunes the log-volume detector (active only when the model
	// carries a rate profile; see BuilderConfig.VolumeWindow).
	Volume volume.Config
	// Builder tunes the model builder.
	Builder modelmgr.BuilderConfig
	// Heartbeat tunes the heartbeat controller.
	Heartbeat heartbeat.Config
	// DisableHeartbeat turns the controller off (the Figure 5 "without
	// HB" configuration).
	DisableHeartbeat bool
	// ArchiveLogs stores raw logs in the log storage.
	ArchiveLogs bool
	// Clock is the time source threaded through the bus, the streaming
	// engines, and the heartbeat controller (default the wall clock).
	// Injecting a clock.Fake makes the pipeline's temporal behavior —
	// batch cadence, heartbeat emission — manually drivable in tests.
	Clock clock.Clock
	// Ops is the ops plane (metrics registry, spans, flight recorder,
	// health probes) threaded through every component. Nil creates a
	// private obs.New bundle on Clock; read it via Pipeline.Ops and
	// Pipeline.Metrics. A caller-built bundle must come from obs.New.
	Ops *obs.Ops
	// BusLagDegraded and BusLagUnhealthy are the bus-lag health-probe
	// thresholds in messages behind (defaults 1024 and 8192): past the
	// first the pipeline reports degraded, past the second unhealthy.
	BusLagDegraded  int64
	BusLagUnhealthy int64
	// HeartbeatStale is how long a tracked source may go unobserved
	// before the heartbeat probe reports degraded (default 5 minutes; it
	// must stay below Heartbeat.ActivityWindow, past which the source is
	// forgotten and the probe recovers).
	HeartbeatStale time.Duration
	// Intake enables the network front door: syslog UDP/TCP listeners
	// and the HTTP bulk endpoint feeding the bus through the bounded
	// multi-tenant admission layer. The zero value disables every
	// listener. Clock and Ops default to the pipeline's.
	Intake intake.Config
	// Recovery enables the crash-recovery plane: checkpoint/restore,
	// commit-gated at-least-once consumption, supervised restarts, and
	// the poison-record quarantine. See RecoveryConfig.
	Recovery RecoveryConfig
	// Storage enables the persistent segment-file store. See
	// StorageConfig; the zero value keeps storage in memory.
	Storage StorageConfig
	// SLOE2E is the end-to-end latency objective: every line whose
	// arrival→detector latency exceeds it increments
	// latency_slo_breach_total (the loglens -slo-e2e-ms flag). Zero
	// keeps the latency histograms but disables breach counting.
	SLOE2E time.Duration
	// MaxBatch caps records per micro-batch (default 4096, threaded to
	// stream.Config.MaxBatch). The fake-clock latency tests use it to
	// close batches on an exact record count instead of the timer.
	MaxBatch int
	// Bus, when set, replaces the pipeline's private in-process bus with
	// an external broker — typically a netbus.Client pointed at a
	// `loglens broker` process (the -bus flag), turning this pipeline
	// into the worker tier of a multi-node deployment. The log manager,
	// the recovery commit gate, and the control watcher all run unchanged
	// against it. Nil keeps the in-process bus (the single-node default).
	Bus bus.Broker
}

// Pipeline is a running LogLens deployment.
type Pipeline struct {
	cfg Config

	bus bus.Broker
	// localBus is the in-process broker backing bus when Config.Bus is
	// unset (nil when an external broker is plugged in).
	localBus *bus.Bus
	store    *store.Store
	engine   *stream.Engine
	hb       *heartbeat.Controller
	logmgr   *logmanager.Manager

	builder    *modelmgr.Builder
	manager    *modelmgr.Manager
	controller *modelmgr.Controller

	mu        sync.Mutex
	callbacks []func(anomaly.Record)
	current   *modelmgr.Model
	bySource  map[string]*modelmgr.Model
	running   bool

	anomalies atomic.Uint64
	unparsed  atomic.Uint64
	forwarded atomic.Uint64

	// ops is the ops plane (Config.Ops, or a private bundle).
	ops *obs.Ops

	// Registry handles, resolved once at construction.
	linesTotal    *metrics.Counter
	hbTotal       *metrics.Counter
	parsedTotal   *metrics.Counter
	unparsedTotal *metrics.Counter
	lineSeconds   *metrics.Histogram

	// lat is the latency/freshness tracker.
	lat *obs.Latency

	cancel context.CancelFunc
	wg     sync.WaitGroup
	runErr chan error

	// intakeSvc is the network front door for the current run (nil until
	// Start with Config.Intake enabled; a fresh service per Start so
	// stop/restore/restart works).
	intakeSvc *intake.Service
	intakeCfg intake.Config

	// Recovery plane (nil/zero unless Config.Recovery is enabled).
	ckpt             *recovery.Manager
	quarantine       *recovery.Quarantine
	quarantined      atomic.Uint64
	quarantinedTotal *metrics.Counter
	commits          *commitTracker
	commitsOn        atomic.Bool
	engineCancel     context.CancelFunc
	ckptMu           sync.Mutex // serializes Checkpoint calls
	ckptStatusMu     sync.Mutex
	ckptLastGen      uint64
	ckptLastErr      error
}

// New constructs a Pipeline with its own bus and storage.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	if cfg.Ops == nil {
		cfg.Ops = obs.New(cfg.Clock)
	}
	if cfg.BusLagDegraded <= 0 {
		cfg.BusLagDegraded = 1024
	}
	if cfg.BusLagUnhealthy <= 0 {
		cfg.BusLagUnhealthy = 8192
	}
	if cfg.HeartbeatStale <= 0 {
		cfg.HeartbeatStale = 5 * time.Minute
	}
	st, err := openStore(cfg)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:      cfg,
		bus:      cfg.Bus,
		store:    st,
		bySource: make(map[string]*modelmgr.Model),
		runErr:   make(chan error, 1),
		ops:      cfg.Ops,
	}
	if p.bus == nil {
		p.localBus = bus.NewWithClock(cfg.Clock)
		p.bus = p.localBus
	}
	reg := p.ops.Metrics
	p.linesTotal = reg.Counter("core_lines_total")
	p.hbTotal = reg.Counter("core_heartbeats_total")
	p.parsedTotal = reg.Counter("core_parsed_total")
	p.unparsedTotal = reg.Counter("core_unparsed_total")
	p.lineSeconds = reg.Histogram("core_line_seconds", nil)
	// Instrumentation is an optional broker capability: the in-process
	// bus and the netbus client both have it, but the Broker interface
	// stays transport-minimal.
	if ib, ok := p.bus.(interface{ Instrument(*obs.Ops) }); ok {
		ib.Instrument(p.ops)
	}
	p.builder = modelmgr.NewBuilder(cfg.Builder)
	p.manager = modelmgr.NewManager(p.store, p.builder)
	p.manager.Instrument(p.ops)
	p.controller, err = modelmgr.NewController(p.bus)
	if err != nil {
		return nil, err
	}
	p.controller.Instrument(reg)
	if !cfg.DisableHeartbeat {
		p.hb = heartbeat.New(cfg.Heartbeat)
		p.hb.SetClock(cfg.Clock)
		p.hb.Instrument(p.ops)
	}
	if cfg.Recovery.enabled() {
		if err := p.initRecovery(); err != nil {
			return nil, err
		}
	}
	engineCfg := stream.Config{
		Name:          engineName,
		Partitions:    cfg.Partitions,
		BatchInterval: cfg.BatchInterval,
		MaxBatch:      cfg.MaxBatch,
		Clock:         cfg.Clock,
		Ops:           p.ops,
	}
	if p.ckpt != nil {
		engineCfg.PanicHook = p.onOperatorPanic
	}
	// Every barrier, empty ones included, re-ages the freshness gauges (so
	// lag grows while the engine is stuck) and, after the commit gate,
	// wakes the Drain and checkpoint-barrier waits.
	engineCfg.OnBarrier = func() {
		p.lat.Refresh()
		p.logmgr.Notify()
	}
	if p.commits != nil {
		engineCfg.BatchHook = func(resolved uint64) { p.logmgr.Commit(p.commits.due(resolved)) }
	}
	p.engine = stream.New(engineCfg, p.operator)
	p.engine.SetSink(p.sink)
	p.lat = obs.NewLatency(reg, cfg.Clock, p.engine.Partitions(), cfg.SLOE2E)
	lmCfg := logmanager.Config{
		ArchiveLogs:  cfg.ArchiveLogs,
		Metrics:      reg,
		ForwardBatch: p.forwardBatch,
	}
	if p.commits != nil {
		// At-least-once intake: the consumer commits nothing on its own;
		// every poll batch becomes a pending commit gated on the engine's
		// resolved watermark. The watermark must be in the engine's
		// frontier unit (accepted seqs): heartbeats increment p.forwarded
		// but are seq-less in the engine, so a forwarded-based watermark
		// would sit permanently above the frontier after the first live
		// heartbeat and the offsets behind it would never commit.
		lmCfg.OnBatch = func([]bus.Message) {
			p.commits.register(p.logmgr.Handled(), p.engine.Accepted())
		}
	}
	// Heartbeats arrive tagged on the data channel (§V-B) and become
	// heartbeat records fanned to every partition of the stateful stage.
	p.logmgr = logmanager.New(p.bus, p.store, lmCfg, func(source string, t time.Time) {
		p.hbTotal.Inc()
		p.forwarded.Add(1)
		p.engine.Send(stream.Record{Key: source, Time: t, Heartbeat: true})
	})
	if cfg.Intake.Enabled() {
		p.intakeCfg = cfg.Intake
		if p.intakeCfg.Clock == nil {
			p.intakeCfg.Clock = cfg.Clock
		}
		if p.intakeCfg.Ops == nil {
			p.intakeCfg.Ops = p.ops
		}
	}
	p.registerProbes()
	return p, nil
}

// Intake exposes the running intake service (nil until Start with
// Config.Intake enabled). The dashboard serves its Stats at /api/intake.
func (p *Pipeline) Intake() *intake.Service {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.intakeSvc
}

// publishIntake is the intake pump's delivery callback: admitted lines
// enter the bus on the logs data channel exactly as agent-shipped lines
// do, with the tenant as the source. The admission→publish delta is the
// intake stage of the latency plane: queue wait plus pump scheduling.
// The intake service stamps admission on a 1-in-16 per-tenant sample
// (zero otherwise), matching the sampled stage histograms downstream.
func (p *Pipeline) publishIntake(tenant string, seq uint64, raw []byte, admitted time.Time) {
	if !admitted.IsZero() {
		p.lat.Observe(obs.StageIntake, p.cfg.Clock.Since(admitted))
	}
	p.bus.Publish(agent.LogsTopic, tenant, raw, map[string]string{
		agent.HeaderSource: tenant,
		agent.HeaderSeq:    strconv.FormatUint(seq, 10),
	})
}

// Latency exposes the latency/freshness tracker. The dashboard serves
// its percentiles and watermark table at /api/latency.
func (p *Pipeline) Latency() *obs.Latency { return p.lat }

// Ops exposes the pipeline's ops plane (never nil). The dashboard serves
// its spans, events, and health probes.
func (p *Pipeline) Ops() *obs.Ops { return p.ops }

// Running reports whether the pipeline has been started and its engine
// loops are live.
func (p *Pipeline) Running() bool {
	p.mu.Lock()
	started := p.running
	p.mu.Unlock()
	if !started {
		return false
	}
	return p.engine.Running()
}

// registerProbes installs the per-component health probes. Thresholds
// come from Config; DESIGN.md's "Telemetry plane" section documents the
// semantics.
func (p *Pipeline) registerProbes() {
	h := p.ops.Health
	h.Register("pipeline", func() obs.ProbeResult {
		p.mu.Lock()
		started := p.running
		p.mu.Unlock()
		if !started {
			return obs.ProbeResult{Status: obs.Degraded, Detail: "pipeline not started"}
		}
		if !p.engine.Running() {
			return obs.ProbeResult{Status: obs.Unhealthy, Detail: "engine loop not running"}
		}
		return obs.ProbeResult{Status: obs.Healthy, Detail: "engine loops live"}
	})
	h.Register("bus", func() obs.ProbeResult {
		lag := p.logmgrLag()
		detail := fmt.Sprintf("log-manager lag %d (degraded ≥ %d, unhealthy ≥ %d)",
			lag, p.cfg.BusLagDegraded, p.cfg.BusLagUnhealthy)
		switch {
		case lag >= p.cfg.BusLagUnhealthy:
			return obs.ProbeResult{Status: obs.Unhealthy, Detail: detail}
		case lag >= p.cfg.BusLagDegraded:
			return obs.ProbeResult{Status: obs.Degraded, Detail: detail}
		}
		return obs.ProbeResult{Status: obs.Healthy, Detail: detail}
	})
	h.Register("heartbeat", func() obs.ProbeResult {
		if p.hb == nil {
			return obs.ProbeResult{Status: obs.Healthy, Detail: "heartbeat controller disabled"}
		}
		var worstSource string
		var worst time.Duration
		for source, idle := range p.hb.Staleness() {
			if idle > worst {
				worstSource, worst = source, idle
			}
		}
		if worst > p.cfg.HeartbeatStale {
			return obs.ProbeResult{Status: obs.Degraded, Detail: fmt.Sprintf(
				"source %q silent for %s (threshold %s)", worstSource, worst, p.cfg.HeartbeatStale)}
		}
		return obs.ProbeResult{Status: obs.Healthy, Detail: fmt.Sprintf(
			"%d tracked sources, max staleness %s", len(p.hb.Staleness()), worst)}
	})
	h.Register("broadcast", func() obs.ProbeResult {
		driver, workers := p.engine.BroadcastVersions(ModelBroadcastID)
		if driver == 0 {
			return obs.ProbeResult{Status: obs.Healthy, Detail: "no model broadcast yet"}
		}
		var maxSkew uint64
		for _, v := range workers {
			// Workers that have never pulled (v == 0) hold no stale
			// copy; a rebroadcast invalidated their caches.
			if v > 0 && driver-v > maxSkew {
				maxSkew = driver - v
			}
		}
		detail := fmt.Sprintf("driver at v%d, max worker skew %d", driver, maxSkew)
		// Skew of one version is the normal window between a
		// rebroadcast and the workers' next pull; beyond that a worker
		// has missed a whole update cycle.
		if maxSkew > 1 {
			return obs.ProbeResult{Status: obs.Degraded, Detail: detail}
		}
		return obs.ProbeResult{Status: obs.Healthy, Detail: detail}
	})
	if prober, ok := p.bus.(interface{ Probe() obs.ProbeResult }); ok {
		// An external broker (netbus.Client) reports its connectivity —
		// connected, backing off between reconnect attempts, or down.
		h.Register("netbus", prober.Probe)
	}
	if p.store.Persistent() {
		h.Register("storage", p.storageProbe)
	}
	if p.cfg.Intake.Enabled() {
		h.Register("intake", func() obs.ProbeResult {
			svc := p.Intake()
			if svc == nil {
				return obs.ProbeResult{Status: obs.Degraded, Detail: "intake not started"}
			}
			return svc.Probe()
		})
	}
	if p.ckpt != nil {
		h.Register("checkpoint", func() obs.ProbeResult {
			p.ckptStatusMu.Lock()
			gen, err := p.ckptLastGen, p.ckptLastErr
			p.ckptStatusMu.Unlock()
			switch {
			case err != nil:
				return obs.ProbeResult{Status: obs.Degraded,
					Detail: "last checkpoint failed: " + err.Error()}
			case gen == 0:
				return obs.ProbeResult{Status: obs.Healthy, Detail: "no checkpoint yet"}
			}
			return obs.ProbeResult{Status: obs.Healthy,
				Detail: fmt.Sprintf("checkpoint generation %d current", gen)}
		})
	}
}

// Bus exposes the in-process message bus (for agents and tools). Nil
// when the pipeline runs against an external broker (Config.Bus); use
// Broker for the transport-neutral handle.
func (p *Pipeline) Bus() *bus.Bus { return p.localBus }

// Broker exposes the broker the pipeline runs against — the in-process
// bus, or the external one installed via Config.Bus.
func (p *Pipeline) Broker() bus.Broker { return p.bus }

// Store exposes the log/model/anomaly storage (for the dashboard and
// tools).
func (p *Pipeline) Store() *store.Store { return p.store }

// Manager exposes the model manager.
func (p *Pipeline) Manager() *modelmgr.Manager { return p.manager }

// Controller exposes the model controller.
func (p *Pipeline) Controller() *modelmgr.Controller { return p.controller }

// Engine exposes the streaming engine (for metrics).
func (p *Pipeline) Engine() *stream.Engine { return p.engine }

// Metrics exposes the pipeline's observability registry (never nil). The
// dashboard serves its Snapshot at /api/metrics.
func (p *Pipeline) Metrics() *metrics.Registry { return p.ops.Metrics }

// AnomalyCount returns the total anomalies reported so far.
func (p *Pipeline) AnomalyCount() uint64 { return p.anomalies.Load() }

// UnparsedCount returns the stateless (unparsed-log) anomaly count.
func (p *Pipeline) UnparsedCount() uint64 { return p.unparsed.Load() }

// OnAnomaly registers a callback invoked for every anomaly. Calls are
// serialized (the engine's sink barrier) but may run on any partition
// worker's goroutine.
func (p *Pipeline) OnAnomaly(fn func(anomaly.Record)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.callbacks = append(p.callbacks, fn)
}

// Model returns the currently installed default model.
func (p *Pipeline) Model() *modelmgr.Model {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current
}

// ModelFor returns the model serving a source: its dedicated model if one
// is installed, else the default.
func (p *Pipeline) ModelFor(source string) *modelmgr.Model {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := p.bySource[source]; ok {
		return m
	}
	return p.current
}

// Train builds a model from training logs, saves it in the model storage,
// and installs it. With the pipeline running the install is a
// zero-downtime rebroadcast.
func (p *Pipeline) Train(id string, logs []logtypes.Log) (*modelmgr.Model, *modelmgr.BuildReport, error) {
	m, report, err := p.builder.Build(id, logs)
	if err != nil {
		return nil, nil, err
	}
	if err := p.manager.Save(m); err != nil {
		return nil, nil, err
	}
	p.InstallModel(m)
	return m, report, nil
}

// TrainFor is Train for a source-dedicated model: logs from that source
// are analyzed with it, while other sources keep the default model.
func (p *Pipeline) TrainFor(source, id string, logs []logtypes.Log) (*modelmgr.Model, *modelmgr.BuildReport, error) {
	m, report, err := p.builder.Build(id, logs)
	if err != nil {
		return nil, nil, err
	}
	if err := p.manager.Save(m); err != nil {
		return nil, nil, err
	}
	p.InstallModelFor(source, m)
	return m, report, nil
}

// InstallModel makes m the active default model. While running, the swap
// is the §V-A rebroadcast: applied between micro-batches, no restart, no
// state loss.
func (p *Pipeline) InstallModel(m *modelmgr.Model) {
	p.installModel("", m)
}

// InstallModelFor installs a model dedicated to one source; other sources
// keep using the default model. A nil model removes the dedication (or,
// for the empty source, deletes the default model).
func (p *Pipeline) InstallModelFor(source string, m *modelmgr.Model) {
	p.installModel(source, m)
}

func (p *Pipeline) installModel(source string, m *modelmgr.Model) {
	p.mu.Lock()
	if source == "" {
		p.current = m
	} else if m == nil {
		delete(p.bySource, source)
	} else {
		p.bySource[source] = m
	}
	running := p.running
	p.mu.Unlock()
	if running {
		p.engine.Rebroadcast(modelIDFor(source), m)
	} else {
		p.engine.Broadcast(modelIDFor(source), m)
	}
}

// Agent creates a shipping agent for a source.
func (p *Pipeline) Agent(source string, ratePerSec int) (*agent.Agent, error) {
	return agent.New(p.bus, agent.Config{
		Source:          source,
		RatePerSec:      ratePerSec,
		TopicPartitions: p.engine.Partitions(),
	})
}

// Start launches the service: the streaming engine, the log manager pump,
// the heartbeat controller, and the control-instruction watcher. It
// returns immediately; Stop shuts everything down.
func (p *Pipeline) Start() error {
	p.mu.Lock()
	if p.running {
		p.mu.Unlock()
		return fmt.Errorf("core: pipeline already running")
	}
	p.running = true
	p.mu.Unlock()

	// The logs topic must exist before consumers attach.
	if err := p.bus.CreateTopic(agent.LogsTopic, p.engine.Partitions()); err != nil {
		return err
	}

	if p.cfg.Intake.Enabled() {
		// A fresh service per run: intake sockets cannot be reopened after
		// a drain, so stop/restore/restart gets new ones.
		svc := intake.New(p.intakeCfg, p.publishIntake)
		if err := svc.Start(); err != nil {
			p.mu.Lock()
			p.running = false
			p.mu.Unlock()
			return err
		}
		p.mu.Lock()
		p.intakeSvc = svc
		p.mu.Unlock()
	}

	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	// The engine gets its own cancellable context: orderly Stop drains
	// via Close, while Kill aborts mid-batch through the cancel.
	engineCtx, engineCancel := context.WithCancel(context.Background())
	p.engineCancel = engineCancel
	p.commitsOn.Store(true)

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.runErr <- p.runSupervised("engine:"+engineName, engineCtx, p.engine.Run)
	}()

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.runSupervised("log-manager", ctx, p.logmgr.Run)
	}()

	if p.ckpt != nil && p.cfg.Recovery.Interval > 0 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// Each checkpoint comes one interval after the previous one
			// ended: a barrier that ran long is not followed at once by a
			// catch-up tick, so the log manager consumes between them.
			for {
				t := p.cfg.Clock.NewTimer(p.cfg.Recovery.Interval)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C():
					p.Checkpoint()
				}
			}
		}()
	}

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.controller.Watch(ctx, "pipeline", p.applyInstruction)
	}()

	if p.hb != nil {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.hb.Run(ctx, func(hb heartbeat.Heartbeat) {
				p.InjectHeartbeat(hb.Source, hb.Time)
			})
		}()
	}
	return nil
}

// InjectHeartbeat ships a heartbeat with an explicit log time on the logs
// data channel, as the heartbeat controller does (§V-B); replay
// experiments call it in place of the wall-clock controller. The log
// manager recognizes the tag, and the record fans out to every partition.
func (p *Pipeline) InjectHeartbeat(source string, t time.Time) {
	p.bus.Publish(agent.LogsTopic, source, nil, map[string]string{
		agent.HeaderSource:    source,
		agent.HeaderHeartbeat: t.Format(time.RFC3339Nano),
	})
}

// Drain waits until the log manager has handled everything on the bus
// when Drain was called, then until the engine has resolved everything
// forwarded: call it before reading exact anomaly counts. The timeout is
// real time, so it elapses even when a fake clock stands still.
func (p *Pipeline) Drain(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ends := make(map[int]int64)
	parts, _ := p.bus.Partitions(agent.LogsTopic)
	for part := 0; part < parts; part++ {
		ends[part], _ = p.bus.EndOffset(agent.LogsTopic, part)
	}
	if p.logmgr.Await(ctx, func() bool { return reached(p.logmgr.Handled(), ends) }) != nil ||
		p.logmgr.Await(ctx, p.resolvedAll) != nil {
		return fmt.Errorf("core: drain timed out with bus lag %d and %d/%d records resolved",
			p.logmgrLag(), p.engine.Metrics().Resolved, p.forwarded.Load())
	}
	return nil
}

// reached reports whether have is at or past want on every partition
// want names.
func reached(have, want map[int]int64) bool {
	for part, off := range want {
		if have[part] < off {
			return false
		}
	}
	return true
}

// resolvedAll reports that the engine has resolved every record the log
// manager forwarded.
func (p *Pipeline) resolvedAll() bool {
	return p.engine.Metrics().Resolved >= p.forwarded.Load()
}

// intakeDrainTimeout bounds how long Stop waits for in-flight intake
// connections and the intake queue to drain before shedding the rest
// (accounted under reason "shutdown").
const intakeDrainTimeout = 10 * time.Second

// Stop shuts the pipeline down: input closes, in-flight batches finish,
// stages drain front to back, background loops exit.
func (p *Pipeline) Stop() error {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return nil
	}
	p.running = false
	svc := p.intakeSvc
	p.mu.Unlock()
	if svc != nil {
		// Drain the front door before the engines: in-flight connections
		// finish, the intake queue empties into the bus, and the stages
		// below then see every admitted line before they close.
		ctx, cancel := context.WithTimeout(context.Background(), intakeDrainTimeout)
		svc.Shutdown(ctx)
		cancel()
	}
	p.cancel()
	// Front-to-back: the log manager must finish its in-flight poll
	// batch and park before the engine closes, or a batch counted as
	// forwarded could land on an already-closed engine and be rejected —
	// silently breaking the lines == parsed + unparsed balance.
	p.logmgr.Await(context.Background(), p.logmgr.Parked)
	p.engine.Close()
	err := <-p.runErr
	p.wg.Wait()
	if p.engineCancel != nil {
		p.engineCancel()
	}
	// Everything drained: seal outstanding storage state so a clean stop
	// leaves no WAL to replay.
	if serr := p.store.Close(); err == nil {
		err = serr
	}
	return err
}

// AcceptUnparsed is the operator feedback loop of §VIII: lines the parser
// flagged as unparsed anomalies but a human marked as normal are clustered
// into new patterns, folded into a clone of the default model, and
// installed with zero downtime. It returns the number of patterns added
// and the new model.
func (p *Pipeline) AcceptUnparsed(lines []string) (int, *modelmgr.Model, error) {
	p.mu.Lock()
	current := p.current
	p.mu.Unlock()
	if current == nil {
		return 0, nil, fmt.Errorf("core: no model installed")
	}
	next := current.Clone()
	next.ID = current.ID + "+accepted"
	added, err := next.AcceptNormal(lines, p.cfg.Builder.Preprocessor, p.cfg.Builder.Logmine)
	if err != nil {
		return 0, nil, err
	}
	if added == 0 {
		return 0, current, nil
	}
	if err := p.manager.Save(next); err != nil {
		return 0, nil, err
	}
	p.InstallModel(next)
	return added, next, nil
}

// Anomalies queries the anomaly storage.
func (p *Pipeline) Anomalies(q store.Query) []store.Hit {
	return p.store.Index(AnomaliesIndex).Search(q)
}

// PatternCounts aggregates per-pattern parse counts across all partitions
// and sources (taken at a micro-batch barrier).
func (p *Pipeline) PatternCounts() map[int]uint64 {
	total := make(map[int]uint64)
	p.engine.Inspect(func(partition int, states *stream.StateMap) {
		states.Range(func(key string, v any) bool {
			if st, ok := v.(*coreOpState); ok && st.parser != nil {
				for id, n := range st.parser.PatternCounts() {
					total[id] += n
				}
			}
			return true
		})
	})
	return total
}

// DetectorStats aggregates the sequence detectors' counters across all
// partitions and sources (taken at a micro-batch barrier).
func (p *Pipeline) DetectorStats() seqdetect.Stats {
	var total seqdetect.Stats
	p.engine.Inspect(func(partition int, states *stream.StateMap) {
		states.Range(func(key string, v any) bool {
			if st, ok := v.(*coreOpState); ok && st.detector != nil {
				s := st.detector.Stats()
				total.LogsProcessed += s.LogsProcessed
				total.LogsSkipped += s.LogsSkipped
				total.EventsClosed += s.EventsClosed
				total.EventsExpired += s.EventsExpired
				total.Anomalies += s.Anomalies
			}
			return true
		})
	})
	return total
}

// OpenStates counts the open (automaton, event) states held across all
// partitions and sources — the memory the heartbeat-driven expiry of §V-B
// keeps bounded. The count is taken at a micro-batch barrier, so it is
// consistent.
func (p *Pipeline) OpenStates() int {
	total := 0
	p.engine.Inspect(func(partition int, states *stream.StateMap) {
		states.Range(func(key string, v any) bool {
			if st, ok := v.(*coreOpState); ok && st.detector != nil {
				total += st.detector.OpenStates()
			}
			return true
		})
	})
	return total
}

func (p *Pipeline) logmgrLag() int64 {
	c, err := p.bus.Subscribe(logmanager.Group, agent.LogsTopic)
	if err != nil {
		return 0
	}
	return c.Lag()
}

// forwardBatch hands one poll batch of logs to the engine as a pooled
// record-slice hand-off: the engine splits it into per-partition slices
// at enqueue time and delivers each directly to that partition's worker
// queue — one queue send per touched partition instead of one per line.
// The engine takes ownership of the buffer. The batch's newest arrival
// stamp then becomes the freshness plane's admission watermark.
func (p *Pipeline) forwardBatch(logs []logtypes.Log) {
	p.forwarded.Add(uint64(len(logs)))
	p.linesTotal.Add(uint64(len(logs)))
	buf := p.engine.RecordBuffer()
	var newest time.Time
	for _, l := range logs {
		buf = append(buf, stream.Record{Key: l.Source, Value: l, Time: l.Arrival})
		if l.Arrival.After(newest) {
			newest = l.Arrival
		}
	}
	p.engine.SendBatch(buf)
	p.lat.NoteIngest(newest)
}

// applyInstruction reacts to model-controller messages. Instructions with
// a Source target that source's dedicated model slot.
func (p *Pipeline) applyInstruction(ins modelmgr.Instruction) {
	switch ins.Op {
	case modelmgr.OpAdd, modelmgr.OpUpdate:
		m, err := p.manager.Load(ins.ModelID)
		if err != nil {
			p.ops.Events.Record(obs.EventRebroadcastFailed, ins.ModelID,
				string(ins.Op)+": "+err.Error(), 0)
			return
		}
		p.installModel(ins.Source, m)
	case modelmgr.OpDelete:
		p.mu.Lock()
		var match bool
		if ins.Source == "" {
			match = p.current != nil && p.current.ID == ins.ModelID
		} else {
			m := p.bySource[ins.Source]
			match = m != nil && m.ID == ins.ModelID
		}
		p.mu.Unlock()
		if match {
			p.installModel(ins.Source, nil)
		}
	}
}
