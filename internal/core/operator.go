package core

import (
	"strconv"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/latency"
	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/modelmgr"
	"loglens/internal/obs"
	"loglens/internal/parser"
	"loglens/internal/preprocess"
	"loglens/internal/seqdetect"
	"loglens/internal/store"
	"loglens/internal/stream"
	"loglens/internal/volume"
)

// coreOpState is the per-partition processing state living in the
// engine's state map: parser and detector instances bound to the current
// model.
type coreOpState struct {
	model    *modelmgr.Model
	parser   *parser.Parser
	detector *seqdetect.Detector
	volume   *volume.Detector // nil unless the model carries a profile

	// modelID is the precomposed dedicated-broadcast ID for this state's
	// source (modelIDFor(source)), so the steady-state model resolution
	// needs no per-record string concatenation.
	modelID string

	// lat is the source's tenant freshness cell, resolved once at state
	// creation so the hot path pays two atomic stores, no map lookup.
	lat *latency.Cell

	// tick drives the 1-in-16 deterministic sampling of the parse and
	// detect stage stamps: those stages are pure CPU between two clock
	// reads, so sampling keeps the histograms honest while amortizing
	// the extra reads to a fraction of a nanosecond per line. Worker
	// states are partition-confined, so no atomicity is needed.
	tick uint64

	// pl is the fused operator's parse scratch: ParseInto reuses its
	// field buffer, and seqdetect/volume copy what they keep, so the
	// steady-state line allocates no ParsedLog.
	pl logtypes.ParsedLog
}

// operator is the per-record ProcessFunc: stateless parse, then stateful
// sequence detection; heartbeats trigger open-state expiry. Each source
// gets its own parser/detector state bound to its effective model (the
// source's dedicated model, or the default).
func (p *Pipeline) operator(ctx *stream.Context, rec stream.Record) []any {
	source := rec.Key
	if l, ok := rec.Value.(logtypes.Log); ok {
		source = l.Source
	}
	// State-first lookup: Get does not retain its key, so the concat
	// stays on the stack and the steady state pays no allocation for
	// state addressing or model-ID composition.
	sv, _ := ctx.States().Get("__op@" + source)
	st, _ := sv.(*coreOpState)
	if st == nil {
		m := p.effectiveModel(ctx, source)
		if m == nil {
			return nil // no model (yet, or deleted): detectors idle
		}
		// The detection-side preprocessor must match the training
		// side (custom delimiters, split rules, timestamp formats),
		// with a fresh per-partition cache.
		pp := p.cfg.Builder.Preprocessor
		if pp == nil {
			pp = preprocess.New(nil, nil)
		}
		st = &coreOpState{
			model:    m,
			modelID:  modelIDFor(source),
			parser:   m.NewParser(pp.Clone()),
			detector: m.NewDetector(p.cfg.Seq),
		}
		st.parser.Instrument(p.reg)
		st.detector.Instrument(p.reg)
		st.detector.SetTracer(p.cfg.Tracer)
		st.detector.SetRecorder(p.events)
		if m.Volume != nil {
			st.volume = volume.New(m.Volume, p.cfg.Volume)
		}
		st.lat = p.lat.Tenant(source)
		ctx.States().Put("__op@"+source, st)
	} else if m := p.modelByID(ctx, st.modelID); m == nil {
		return nil // model deleted: detectors idle
	} else if st.model != m {
		// Zero-downtime model swap: same parser/detector objects,
		// state preserved, new rules.
		st.parser.SetPatterns(m.Patterns)
		st.detector.SetModel(m.Sequence)
		switch {
		case m.Volume == nil:
			st.volume = nil
		case st.volume == nil:
			st.volume = volume.New(m.Volume, p.cfg.Volume)
		default:
			st.volume.SetProfile(m.Volume)
		}
		st.model = m
	}

	if rec.Heartbeat {
		recs := st.detector.HeartbeatFor(rec.Key, rec.Time)
		if st.volume != nil {
			recs = append(recs, st.volume.Advance(rec.Time)...)
		}
		return wrapRecords(recs)
	}

	l, ok := rec.Value.(logtypes.Log)
	if !ok {
		return nil
	}
	if p.ckpt != nil {
		p.checkPoison(l)
	}
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Stamp(l.Source, l.Seq, metrics.StagePartition, "p="+strconv.Itoa(ctx.Partition()))
	}
	// Stage histograms ride a deterministic 1-in-16 per-source sample:
	// the deliver stage closes at the engine's batch pickup stamp (bus
	// publish → micro-batch collection → worker dispatch, shared by the
	// whole batch, so no clock read here), and the parse/detect stages
	// take their own stamps around the work. Everything that must be
	// per-line for correctness — e2e, SLO burn, freshness watermarks —
	// rides a single post-detect clock read, so the plane costs one
	// clock read per unsampled line.
	var pickedUp time.Time
	sampled := st.tick&15 == 0
	st.tick++
	if sampled {
		p.lat.Observe(latency.StageDeliver, ctx.BatchStart().Sub(l.Arrival))
		pickedUp = p.cfg.Clock.Now()
	}
	// ParseInto reuses the state's ParsedLog scratch (field buffer
	// included): safe here because the fused downstream consumers copy
	// what they retain, so nothing escapes the record's lifetime.
	pl := &st.pl
	if err := st.parser.ParseInto(l, pl); err != nil {
		p.unparsed.Add(1)
		p.unparsedTotal.Inc()
		now := p.cfg.Clock.Now()
		if sampled {
			p.lat.Observe(latency.StageParse, now.Sub(pickedUp))
		}
		e2e := now.Sub(l.Arrival)
		p.lineSeconds.Observe(e2e.Seconds())
		p.lat.CheckSLO(e2e)
		// An unparsed line still advances freshness: the partition made
		// progress even though no event time was extracted.
		n := l.Arrival.UnixNano()
		p.lat.Partition(ctx.Partition()).Note(n, n)
		st.lat.Note(n, n)
		if p.cfg.Tracer != nil {
			p.cfg.Tracer.Stamp(l.Source, l.Seq, metrics.StageParser, "unparsed")
		}
		return []any{anomaly.Record{
			Type:      anomaly.UnparsedLog,
			Severity:  anomaly.Warning,
			Reason:    "log matches no pattern",
			Timestamp: l.Arrival,
			Source:    l.Source,
			Logs:      []logtypes.Log{l},
		}}
	}
	p.parsedTotal.Inc()
	var parsedAt time.Time
	if sampled {
		parsedAt = p.cfg.Clock.Now()
		p.lat.Observe(latency.StageParse, parsedAt.Sub(pickedUp))
	}
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Stamp(l.Source, l.Seq, metrics.StageParser, "pattern="+strconv.Itoa(pl.PatternID))
	}
	if p.hb != nil && pl.HasTimestamp {
		p.hb.Observe(l.Source, pl.Timestamp)
	}
	recs := st.detector.Process(pl)
	if st.volume != nil {
		recs = append(recs, st.volume.Process(pl)...)
	}
	now := p.cfg.Clock.Now()
	if sampled {
		p.lat.Observe(latency.StageDetect, now.Sub(parsedAt))
	}
	e2e := now.Sub(l.Arrival)
	p.lineSeconds.Observe(e2e.Seconds())
	p.lat.CheckSLO(e2e)
	// Freshness watermarks: event time from the parsed timestamp when
	// present (falling back to arrival), processing time from arrival.
	p.lat.Partition(ctx.Partition()).Note(pl.EventTime().UnixNano(), l.Arrival.UnixNano())
	st.lat.Note(pl.EventTime().UnixNano(), l.Arrival.UnixNano())
	return wrapRecords(recs)
}

// effectiveModel resolves the model serving a source via the worker's
// broadcast cache: the source-dedicated variable when present, else the
// default.
func (p *Pipeline) effectiveModel(ctx *stream.Context, source string) *modelmgr.Model {
	return p.modelByID(ctx, modelIDFor(source))
}

// modelByID is effectiveModel with the dedicated-broadcast ID already
// composed — the operators cache it per source state so the hot path
// skips the modelIDFor concatenation.
func (p *Pipeline) modelByID(ctx *stream.Context, dedicatedID string) *modelmgr.Model {
	if dedicatedID != ModelBroadcastID {
		if v, ok := ctx.Broadcast(dedicatedID); ok {
			if m, _ := v.(*modelmgr.Model); m != nil {
				return m
			}
		}
	}
	v, ok := ctx.Broadcast(ModelBroadcastID)
	if !ok {
		return nil
	}
	m, _ := v.(*modelmgr.Model)
	return m
}

func wrapRecords(recs []anomaly.Record) []any {
	if len(recs) == 0 {
		return nil
	}
	out := make([]any, len(recs))
	for i, r := range recs {
		out[i] = r
	}
	return out
}

// sink receives anomalies from the engine barrier, stores them, and runs
// callbacks.
func (p *Pipeline) sink(o any) {
	rec, ok := o.(anomaly.Record)
	if !ok {
		return
	}
	p.anomalies.Add(1)
	if len(rec.Logs) > 0 {
		// The sink stage is verdict staleness: how old the anomaly's
		// triggering line was when the verdict landed here — the
		// paper's real-time claim in one number. Anomalies are rare, so
		// this path is off the per-line budget.
		p.lat.Observe(latency.StageSink, p.cfg.Clock.Since(rec.Logs[0].Arrival))
	}
	// Anomalies are rare relative to lines, so the labeled counter is
	// resolved per record rather than cached per type.
	p.reg.Counter("core_anomalies_total", "type", rec.Type.String()).Inc()
	p.events.Record(obs.EventAnomaly, rec.Source, rec.Type.String()+": "+rec.Reason, 1)
	if p.cfg.Tracer != nil && len(rec.Logs) > 0 {
		l := rec.Logs[0]
		p.cfg.Tracer.Stamp(l.Source, l.Seq, metrics.StageEmit, "type="+rec.Type.String())
	}
	p.store.Index(AnomaliesIndex).PutAuto(store.Document{
		"type":      rec.Type.String(),
		"severity":  rec.Severity.String(),
		"reason":    rec.Reason,
		"ts":        rec.Timestamp,
		"source":    rec.Source,
		"eventId":   rec.EventID,
		"automaton": rec.AutomatonID,
		"logCount":  len(rec.Logs),
	})
	p.mu.Lock()
	cbs := p.callbacks
	p.mu.Unlock()
	for _, fn := range cbs {
		fn(rec)
	}
}
