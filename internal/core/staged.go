package core

import (
	"encoding/json"
	"strconv"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/bus"
	"loglens/internal/latency"
	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/preprocess"
	"loglens/internal/stream"
	"loglens/internal/volume"
)

// ParsedTopic is the bus topic carrying parsed logs between the parser
// stage and the sequence-detector stage in the staged topology — the
// Figure 1 deployment shape, where the log parser and the log sequence
// anomaly detector are separate services communicating over Kafka.
const ParsedTopic = "parsed"

// parseOperator is the parser stage of the staged topology: stateless
// parsing only. Parsed logs are emitted downstream; unparsed logs are
// stateless anomalies.
func (p *Pipeline) parseOperator(ctx *stream.Context, rec stream.Record) []any {
	l, ok := rec.Value.(logtypes.Log)
	if !ok {
		return nil // heartbeats bypass the parse stage
	}
	if p.ckpt != nil {
		p.checkPoison(l)
	}
	sv, _ := ctx.States().Get("__op@" + l.Source)
	st, _ := sv.(*coreOpState)
	if st == nil {
		m := p.effectiveModel(ctx, l.Source)
		if m == nil {
			return nil
		}
		pp := p.cfg.Builder.Preprocessor
		if pp == nil {
			pp = preprocess.New(nil, nil)
		}
		st = &coreOpState{model: m, modelID: modelIDFor(l.Source), parser: m.NewParser(pp.Clone())}
		st.parser.Instrument(p.reg)
		if p.lat != nil {
			st.lat = p.lat.Tenant(l.Source)
		}
		ctx.States().Put("__op@"+l.Source, st)
	} else if m := p.modelByID(ctx, st.modelID); m == nil {
		return nil
	} else if st.model != m {
		st.parser.SetPatterns(m.Patterns)
		st.model = m
	}

	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Stamp(l.Source, l.Seq, metrics.StagePartition, "p="+strconv.Itoa(ctx.Partition()))
	}
	// Same instrumentation scheme as the fused operator: the deliver and
	// parse stage histograms ride a 1-in-16 per-source sample, with
	// deliver closing at the engine's batch pickup stamp.
	var pickedUp time.Time
	sampled := false
	if p.lat != nil {
		sampled = st.tick&15 == 0
		st.tick++
		if sampled {
			p.lat.Observe(latency.StageDeliver, ctx.BatchStart().Sub(l.Arrival))
			pickedUp = p.cfg.Clock.Now()
		}
	}
	pl, err := st.parser.Parse(l)
	if err != nil {
		p.unparsed.Add(1)
		p.unparsedTotal.Inc()
		if p.lat != nil {
			now := p.cfg.Clock.Now()
			if sampled {
				p.lat.Observe(latency.StageParse, now.Sub(pickedUp))
			}
			e2e := now.Sub(l.Arrival)
			p.lineSeconds.Observe(e2e.Seconds())
			p.lat.CheckSLO(e2e)
			// Unparsed lines end at the parse stage in the staged
			// topology, so they advance freshness here (event time =
			// arrival: nothing was extracted).
			n := l.Arrival.UnixNano()
			p.lat.Partition(ctx.Partition()).Note(n, n)
			st.lat.Note(n, n)
		} else {
			p.lineSeconds.Observe(p.cfg.Clock.Since(l.Arrival).Seconds())
		}
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
	if sampled {
		p.lat.Observe(latency.StageParse, p.cfg.Clock.Now().Sub(pickedUp))
	}
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Stamp(l.Source, l.Seq, metrics.StageParser, "pattern="+strconv.Itoa(pl.PatternID))
	}
	if p.hb != nil && pl.HasTimestamp {
		p.hb.Observe(l.Source, pl.Timestamp)
	}
	return []any{pl}
}

// parseSink routes the parser stage's outputs: anomalies to the common
// sink, parsed logs onto the bus for the detector stage.
func (p *Pipeline) parseSink(o any) {
	switch v := o.(type) {
	case anomaly.Record:
		p.sink(v)
	case *logtypes.ParsedLog:
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		p.bus.Publish(ParsedTopic, v.Source, data, nil)
	}
}

// detectOperator is the detector stage: stateful sequence detection plus
// the optional volume application, fed by parsed logs from the bus and by
// heartbeat records.
func (p *Pipeline) detectOperator(ctx *stream.Context, rec stream.Record) []any {
	source := rec.Key
	if pl, ok := rec.Value.(*logtypes.ParsedLog); ok {
		source = pl.Source
	}
	sv, _ := ctx.States().Get("__op@" + source)
	st, _ := sv.(*coreOpState)
	if st == nil {
		m := p.effectiveModel(ctx, source)
		if m == nil {
			return nil
		}
		st = &coreOpState{model: m, modelID: modelIDFor(source), detector: m.NewDetector(p.cfg.Seq)}
		st.detector.Instrument(p.reg)
		st.detector.SetTracer(p.cfg.Tracer)
		st.detector.SetRecorder(p.events)
		if m.Volume != nil {
			st.volume = volume.New(m.Volume, p.cfg.Volume)
		}
		if p.lat != nil {
			st.lat = p.lat.Tenant(source)
		}
		ctx.States().Put("__op@"+source, st)
	} else if m := p.modelByID(ctx, st.modelID); m == nil {
		return nil
	} else if st.model != m {
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
	pl, ok := rec.Value.(*logtypes.ParsedLog)
	if !ok {
		return nil
	}
	var pickedUp time.Time
	sampled := false
	if p.lat != nil {
		sampled = st.tick&15 == 0
		st.tick++
		if sampled {
			pickedUp = p.cfg.Clock.Now()
		}
	}
	recs := st.detector.Process(pl)
	if st.volume != nil {
		recs = append(recs, st.volume.Process(pl)...)
	}
	// End-to-end latency for staged lines is closed here, after the
	// second stage (the parse stage only observes unparsed lines).
	if p.lat != nil {
		now := p.cfg.Clock.Now()
		if sampled {
			p.lat.Observe(latency.StageDetect, now.Sub(pickedUp))
		}
		e2e := now.Sub(pl.Arrival)
		p.lineSeconds.Observe(e2e.Seconds())
		p.lat.CheckSLO(e2e)
		p.lat.Partition(ctx.Partition()).Note(pl.EventTime().UnixNano(), pl.Arrival.UnixNano())
		st.lat.Note(pl.EventTime().UnixNano(), pl.Arrival.UnixNano())
	} else {
		p.lineSeconds.Observe(p.cfg.Clock.Since(pl.Arrival).Seconds())
	}
	return wrapRecords(recs)
}

// pumpParsed consumes the parsed topic into the detector stage until the
// consumer's context is done. With recovery enabled the consumer runs
// with auto-commit off (the detect engine's commit gate advances the
// group) and honors checkpoint pauses.
func (p *Pipeline) pumpParsed(done <-chan struct{}) {
	consumer, err := p.bus.Subscribe(parsedPumpGroup, ParsedTopic)
	if err != nil {
		return
	}
	if p.parsedCommits != nil {
		consumer.DisableAutoCommit()
	}
	forward := func(msgs []bus.Message) {
		for _, msg := range msgs {
			p.forwardParsed(msg.Value)
		}
		if p.parsedCommits != nil {
			// Watermark in the detect engine's frontier unit (accepted
			// seqs), not parsedForwarded: heartbeats count toward the
			// latter but carry no frontier seq, so a forwarded-based
			// watermark would never be reached once a heartbeat flows.
			p.parsedCommits.register(msgs, p.detectEngine.Accepted())
		}
	}
	for {
		select {
		case <-done:
			if p.killed.Load() {
				// Crash simulation: abandon, the checkpoint recovers.
				return
			}
			// Final drain of anything already published (polls are
			// capped, so loop until empty).
			for {
				msgs := consumer.TryPoll(1024)
				if len(msgs) == 0 {
					return
				}
				forward(msgs)
			}
		default:
		}
		if p.pumpPaused.Load() {
			p.pumpBusy.Store(false)
			p.pumpIdle.Store(true)
			time.Sleep(time.Millisecond)
			continue
		}
		p.pumpIdle.Store(false)
		p.pumpBusy.Store(true)
		msgs := consumer.TryPoll(1024)
		if len(msgs) == 0 {
			p.pumpBusy.Store(false)
			time.Sleep(time.Millisecond)
			continue
		}
		forward(msgs)
	}
}

func (p *Pipeline) forwardParsed(data []byte) {
	var pl logtypes.ParsedLog
	if err := json.Unmarshal(data, &pl); err != nil {
		return
	}
	p.parsedForwarded.Add(1)
	p.detectEngine.Send(stream.Record{Key: pl.Source, Value: &pl, Time: pl.EventTime()})
}

// parsedLag reports unconsumed parsed-topic messages.
func (p *Pipeline) parsedLag() int64 {
	c, err := p.bus.Subscribe(parsedPumpGroup, ParsedTopic)
	if err != nil {
		return 0
	}
	return c.Lag()
}
