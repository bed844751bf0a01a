package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"loglens/internal/agent"
	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/core"
	"loglens/internal/grok"
	"loglens/internal/intake"
	"loglens/internal/logmanager"
	"loglens/internal/logtypes"
	"loglens/internal/netbus"
	"loglens/internal/parser"
	"loglens/internal/preprocess"
	"loglens/internal/seqdetect"
	"loglens/internal/store"
	"loglens/internal/stream"
	"loglens/internal/timestamp"
	"loglens/internal/tokenize"
)

const (
	// ladderLines is how much of a workload's stream the ladder replays.
	ladderLines = 200_000
	// ladderBatch is the span granularity: one span per layer per batch.
	ladderBatch = 1024
	// netbusEvery thins the netbus layer: a loopback round trip costs
	// tens of microseconds, so it replays one line in netbusEvery.
	netbusEvery = 10
	// flushEveryBatches is how often the segment-store layer seals its
	// WAL into a segment.
	flushEveryBatches = 32
)

// span is one traced interval: a layer working on one batch.
type span struct {
	name, parent string
	batch, lines int
	start, end   time.Duration // since the trace began
}

// trace keeps spans in memory until the run ends, and each layer's
// running total.
type trace struct {
	begin  time.Time
	on     bool
	spans  []span
	totals map[string]*layerTotal
}

func newTrace(on bool) *trace {
	return &trace{begin: time.Now(), on: on, totals: map[string]*layerTotal{}}
}

// total returns layer name's running total.
func (t *trace) total(name string) *layerTotal {
	tot := t.totals[name]
	if tot == nil {
		tot = &layerTotal{}
		t.totals[name] = tot
	}
	return tot
}

// layerTotal accumulates one layer's time and work.
type layerTotal struct {
	dur   time.Duration
	lines int
}

func (l layerTotal) nsPerLine() float64 {
	if l.lines == 0 {
		return 0
	}
	return float64(l.dur.Nanoseconds()) / float64(l.lines)
}

// do times fn as layer name working on batch and, when tracing is on,
// records the span.
func (t *trace) do(name, parent string, batch, lines int, fn func()) {
	tot := t.total(name)
	start := time.Now()
	fn()
	end := time.Now()
	tot.dur += end.Sub(start)
	tot.lines += lines
	if t.on {
		t.spans = append(t.spans, span{name, parent, batch, lines, start.Sub(t.begin), end.Sub(t.begin)})
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one lane per layer, complete
// events, the parent layer and batch id in args.
func (t *trace) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := map[string]int{}
	var events []event
	for _, s := range t.spans {
		tid, ok := lanes[s.name]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.name] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.name}})
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"batch": s.batch, "parent": s.parent, "lines": s.lines},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ladderLine is one line of the replayed stream with its source.
type ladderLine struct {
	src int
	raw string
}

// ladderInput takes the first n lines of the stream in the order the
// generators interleave them.
func ladderInput(st *logStream, n int) []ladderLine {
	var out []ladderLine
	for k := 0; k < len(st.lines[0]) && len(out) < n; k++ {
		for s := range st.sources {
			if len(out) < n {
				out = append(out, ladderLine{s, st.lines[s][k]})
			}
		}
	}
	return out
}

// batches calls fn for each ladderBatch-sized piece of in.
func batches(in []ladderLine, fn func(b int, lines []ladderLine)) {
	for b, i := 0, 0; i < len(in); b, i = b+1, i+ladderBatch {
		end := i + ladderBatch
		if end > len(in) {
			end = len(in)
		}
		fn(b, in[i:end])
	}
}

// linePath runs the per-line CPU layers — tokenize, timestamp,
// preprocess, parser, grok match, sequence detector — one layer at a
// time over the whole input, and records their ratios in out.
func linePath(tr *trace, pl *plan, in []ladderLine, out map[string]float64) {
	sources := pl.stream.sources

	tok := tokenize.New()
	var tscratch tokenize.Scratch
	batches(in, func(b int, lines []ladderLine) {
		tr.do("tokenize", "preprocess", b, len(lines), func() {
			for _, l := range lines {
				tok.SplitScratch(l.raw, &tscratch)
			}
		})
	})

	// The identifier works on token slices; tokenising them again is
	// not part of its span.
	ident := timestamp.New()
	toks := make([][]string, ladderBatch)
	batches(in, func(b int, lines []ladderLine) {
		for i, l := range lines {
			toks[i] = tok.Split(l.raw)
		}
		tr.do("timestamp", "preprocess", b, len(lines), func() {
			for i := range lines {
				ident.Identify(toks[i])
			}
		})
	})
	ts := ident.Stats()
	if n := ts.CacheHits + ts.CacheMisses; n > 0 {
		out["timestamp.cache_hit_share"] = float64(ts.CacheHits) / float64(n)
	}

	pp := preprocess.New(nil, nil)
	var pscratch preprocess.Scratch
	batches(in, func(b int, lines []ladderLine) {
		tr.do("preprocess", "parser", b, len(lines), func() {
			for _, l := range lines {
				pp.ProcessScratch(l.raw, &pscratch)
			}
		})
	})

	// One parser per source, as the pipeline's operator keeps them.
	parsers := make([]*parser.Parser, len(sources))
	for s := range parsers {
		parsers[s] = pl.model.NewParser(preprocess.New(nil, nil))
	}
	var scratch logtypes.ParsedLog
	batches(in, func(b int, lines []ladderLine) {
		tr.do("parser", "", b, len(lines), func() {
			for i, l := range lines {
				parsers[l.src].ParseInto(logtypes.Log{Source: sources[l.src], Seq: uint64(b*ladderBatch + i + 1), Raw: l.raw}, &scratch)
			}
		})
	})
	var ps parser.Stats
	for _, p := range parsers {
		s := p.Stats()
		ps.Parsed += s.Parsed
		ps.Unmatched += s.Unmatched
		ps.GroupHits += s.GroupHits
		ps.GroupBuilds += s.GroupBuilds
		ps.CandidateScans += s.CandidateScans
	}
	if n := ps.Parsed + ps.Unmatched; n > 0 {
		out["parser.group_hit_share"] = float64(ps.GroupHits) / float64(n)
		out["parser.unparsed_share"] = float64(ps.Unmatched) / float64(n)
		out["parser.candidate_scans_per_line"] = float64(ps.CandidateScans) / float64(n)
	}

	// Grok match and the detector work on parsed logs; producing those
	// (a second parse, allocating) is outside their spans. The grok layer
	// is the one successful match per line; the failed candidates a
	// parser tries first stay in the parser's self time.
	dets := make([]*seqdetect.Detector, len(sources))
	for s := range dets {
		dets[s] = pl.model.NewDetector(seqdetect.Config{})
	}
	openPeak := 0
	type matched struct {
		pat    *grok.Pattern
		tokens []string
	}
	var fields []logtypes.Field
	batches(in, func(b int, lines []ladderLine) {
		type sourced struct {
			p   *logtypes.ParsedLog
			src int
		}
		parsed := make([]sourced, 0, len(lines))
		match := make([]matched, 0, len(lines))
		for i, l := range lines {
			p, err := parsers[l.src].Parse(logtypes.Log{Source: sources[l.src], Seq: uint64(b*ladderBatch + i + 1), Raw: l.raw})
			if err != nil {
				continue
			}
			parsed = append(parsed, sourced{p, l.src})
			if pat, ok := pl.model.Patterns.Get(p.PatternID); ok {
				match = append(match, matched{pat, pp.Process(l.raw).Tokens})
			}
		}
		tr.do("grok", "parser", b, len(match), func() {
			for _, m := range match {
				fields, _ = m.pat.AppendMatch(fields[:0], m.tokens)
			}
		})
		tr.do("seqdetect", "", b, len(parsed), func() {
			for _, sp := range parsed {
				dets[sp.src].Process(sp.p)
			}
		})
		open := 0
		for _, d := range dets {
			open += d.OpenStates()
		}
		if open > openPeak {
			openPeak = open
		}
	})
	out["seqdetect.open_states_peak"] = float64(openPeak)
}

// heapInUse is the live heap after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// substrate runs the layers around the line path: bus, log manager,
// stream engine, both store engines, netbus, intake and checkpoint.
func substrate(ctx context.Context, tr *trace, pl *plan, in []ladderLine, work string, out map[string]float64) error {
	sources := pl.stream.sources
	headers := make([]map[string]string, len(sources))
	for s, src := range sources {
		headers[s] = map[string]string{agent.HeaderSource: src}
	}
	payload := func(l ladderLine) []byte { return []byte(l.raw) }

	// Bus publish and poll, and what the bus retains per line: it never
	// trims, so this is the slope of every workload's memory.
	b := bus.New()
	if err := b.CreateTopic(agent.LogsTopic, 4); err != nil {
		return err
	}
	heap0 := heapInUse()
	batches(in, func(bi int, lines []ladderLine) {
		tr.do("bus.publish", "", bi, len(lines), func() {
			for _, l := range lines {
				b.Publish(agent.LogsTopic, sources[l.src], payload(l), headers[l.src])
			}
		})
	})
	if grown := int64(heapInUse()) - int64(heap0); grown > 0 {
		out["bus.retained_bytes_per_line"] = float64(grown) / float64(len(in))
	}
	poller, err := b.NewConsumer("ladder-poll", agent.LogsTopic)
	if err != nil {
		return err
	}
	for bi, left := 0, len(in); left > 0; bi++ {
		n := 0
		tr.do("bus.poll", "logmanager", bi, 0, func() { n = len(poller.TryPoll(ladderBatch)) })
		if n == 0 {
			return fmt.Errorf("ladder: bus poll came up empty with %d lines left", left)
		}
		tr.total("bus.poll").lines += n
		left -= n
	}

	// Log manager: its own group on the same topic drains what was
	// published, forwarding batches to a no-op.
	lm := logmanager.New(b, nil, logmanager.Config{ForwardBatch: func([]logtypes.Log) {}}, nil)
	tr.do("logmanager", "", 0, 0, func() { tr.total("logmanager").lines += lm.DrainOnce() })
	if tr.total("logmanager").lines != len(in) {
		return fmt.Errorf("ladder: log manager drained %d of %d lines", tr.total("logmanager").lines, len(in))
	}

	// Stream engine with a pass-through operator: SendBatch to sink,
	// timed from the first batch in to the last record out. The operator
	// also counts records per partition for the skew figure.
	var sunk atomic.Int64
	perPartition := make([]int64, 4)
	eng := stream.New(stream.Config{Partitions: len(perPartition)}, func(c *stream.Context, rec stream.Record) []any {
		perPartition[c.Partition()]++ // partition-confined, read after Run returns
		return []any{rec.Value}
	})
	eng.SetSink(func(any) { sunk.Add(1) })
	engDone := make(chan error, 1)
	go func() { engDone <- eng.Run(ctx) }()
	streamStart := time.Now()
	batches(in, func(bi int, lines []ladderLine) {
		tr.do("stream.send", "stream", bi, len(lines), func() {
			buf := eng.RecordBuffer()
			for _, l := range lines {
				buf = append(buf, stream.Record{Key: sources[l.src], Value: l.raw})
			}
			eng.SendBatch(buf)
		})
	})
	eng.Close()
	if err := <-engDone; err != nil {
		return fmt.Errorf("ladder: stream engine: %w", err)
	}
	streamEnd := time.Now()
	if int(sunk.Load()) != len(in) {
		return fmt.Errorf("ladder: stream engine sank %d of %d records", sunk.Load(), len(in))
	}
	tr.total("stream").dur, tr.total("stream").lines = streamEnd.Sub(streamStart), len(in)
	if tr.on {
		tr.spans = append(tr.spans, span{"stream", "", 0, len(in), streamStart.Sub(tr.begin), streamEnd.Sub(tr.begin)})
	}
	var maxPart int64
	for _, n := range perPartition {
		if n > maxPart {
			maxPart = n
		}
	}
	out["stream.partition_skew"] = float64(maxPart) * float64(len(perPartition)) / float64(len(in))

	// Stores: the document the log manager archives per line, into the
	// in-memory engine and into the segment engine.
	doc := func(i int, l ladderLine) store.Document {
		return store.Document{"raw": l.raw, "seq": uint64(i + 1), "arrival": time.Unix(1456218000, 0).Add(time.Duration(i) * time.Millisecond), "source": sources[l.src]}
	}
	mem := store.New().Index("logs")
	batches(in, func(bi int, lines []ladderLine) {
		tr.do("store.mem_put", "", bi, len(lines), func() {
			for i, l := range lines {
				mem.PutAuto(doc(bi*ladderBatch+i, l))
			}
		})
	})
	segDir, err := os.MkdirTemp(work, "ladder-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(segDir)
	seg, err := store.Open(store.Options{Dir: segDir})
	if err != nil {
		return err
	}
	segIdx := seg.Index("logs")
	var segErr error
	batches(in, func(bi int, lines []ladderLine) {
		tr.do("store.seg_put", "", bi, len(lines), func() {
			for i, l := range lines {
				segIdx.PutAuto(doc(bi*ladderBatch+i, l))
			}
		})
		tr.do("store.sync", "", bi, 1, func() {
			if err := seg.Sync(); err != nil {
				segErr = err
			}
		})
		if bi%flushEveryBatches == flushEveryBatches-1 {
			tr.do("store.flush", "", bi, 1, func() {
				if err := seg.Flush(); err != nil {
					segErr = err
				}
			})
		}
	})
	tr.do("store.flush", "", len(in)/ladderBatch, 1, func() {
		if err := seg.Flush(); err != nil {
			segErr = err
		}
	})
	if segErr != nil {
		return fmt.Errorf("ladder: segment store: %w", segErr)
	}
	for i := 0; i < 5; i++ {
		tr.do("store.search", "", i, 1, func() {
			// The newest hundred of one source among the last two thousand
			// documents: the range lets the engine skip older segments, as
			// a dashboard query over recent data does.
			segIdx.Search(store.Query{
				Term:       map[string]any{"source": sources[0]},
				RangeField: "seq", RangeMin: uint64(len(in) - 2000),
				SortBy: "seq", Desc: true, Limit: 100,
			})
		})
	}
	if size, err := dirSize(segDir); err == nil {
		out["store.disk_bytes_per_doc"] = float64(size) / float64(len(in))
	}
	if err := seg.Close(); err != nil {
		return fmt.Errorf("ladder: close segment store: %w", err)
	}

	// Netbus: acked publishes over loopback to an in-process broker.
	srv := netbus.NewServer(bus.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	client := netbus.Dial(addr, netbus.Options{Role: "agent"})
	defer client.Close()
	cctx, cancel := context.WithTimeout(ctx, readyTimeout)
	err = client.WaitConnected(cctx)
	cancel()
	if err != nil {
		return fmt.Errorf("ladder: connect to in-process broker: %w", err)
	}
	if err := client.CreateTopic(agent.LogsTopic, 4); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var netErr error
	batches(in, func(bi int, lines []ladderLine) {
		n := (len(lines) + netbusEvery - 1) / netbusEvery
		tr.do("netbus.publish", "", bi, n, func() {
			for i := 0; i < len(lines); i += netbusEvery {
				l := lines[i]
				if _, _, err := client.Publish(agent.LogsTopic, sources[l.src], payload(l), headers[l.src]); err != nil {
					netErr = err
				}
			}
		})
	})
	if netErr != nil {
		return fmt.Errorf("ladder: netbus publish: %w", netErr)
	}
	runtime.ReadMemStats(&m1)
	out["netbus.allocs_per_publish"] = float64(m1.Mallocs-m0.Mallocs) / float64(tr.total("netbus.publish").lines)

	// Intake: frame scanning, syslog parsing and admission, without the
	// sockets.
	limiter := intake.NewLimiter(clock.New(), 0, 0)
	var frames bytes.Buffer
	var intakeErr error
	batches(in, func(bi int, lines []ladderLine) {
		frames.Reset()
		for _, l := range lines {
			frames.Write(syslogFrame(sources[l.src], l.raw))
		}
		rd := bytes.NewReader(frames.Bytes())
		n := 0
		tr.do("intake", "", bi, len(lines), func() {
			sc := intake.NewFrameScanner(rd, 0)
			for sc.Scan() {
				if m, err := intake.ParseSyslog(sc.Bytes()); err == nil {
					limiter.Take(m.Hostname)
					n++
				}
			}
		})
		if n != len(lines) {
			intakeErr = fmt.Errorf("ladder: intake parsed %d of %d frames", n, len(lines))
		}
	})
	if intakeErr != nil {
		return intakeErr
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var size int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			size += info.Size()
		}
		return err
	})
	return size, err
}

// checkpointLayer measures Pipeline.Checkpoint on a pipeline that has
// just processed the ladder input and is idle: how long one takes and
// how many bytes it writes.
func checkpointLayer(tr *trace, pl *plan, in []ladderLine, work string, out map[string]float64) error {
	dir, err := os.MkdirTemp(work, "ladder-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := core.New(core.Config{
		DisableHeartbeat: true,
		Recovery:         core.RecoveryConfig{Dir: filepath.Join(dir, "ckpt")},
		Storage:          core.StorageConfig{Dir: filepath.Join(dir, "data")},
	})
	if err != nil {
		return err
	}
	p.InstallModel(pl.model)
	if err := p.Start(); err != nil {
		return err
	}
	defer p.Stop()
	sources := pl.stream.sources
	for _, l := range in {
		p.Bus().Publish(agent.LogsTopic, sources[l.src], []byte(l.raw), map[string]string{agent.HeaderSource: sources[l.src]})
	}
	if err := p.Drain(drainDeadline); err != nil {
		return fmt.Errorf("ladder: checkpoint pipeline: %w", err)
	}
	for i := 0; i < 3; i++ {
		var cerr error
		tr.do("recovery.checkpoint", "", i, 1, func() { _, cerr = p.Checkpoint() })
		if cerr != nil {
			return fmt.Errorf("ladder: checkpoint: %w", cerr)
		}
	}
	out["recovery.checkpoint_ms"] = tr.total("recovery.checkpoint").nsPerLine() / 1e6
	size, err := dirSize(filepath.Join(dir, "ckpt"))
	if err != nil {
		return err
	}
	// Keep-2 retention leaves two generations after three checkpoints.
	out["recovery.checkpoint_bytes"] = float64(size) / 2
	return nil
}

// spanCost measures what recording n spans costs: n empty spans with
// recording on, minus the same with recording off.
func spanCost(n int) time.Duration {
	var cost [2]time.Duration
	for i, on := range []bool{false, true} {
		t := newTrace(on)
		start := time.Now()
		for b := 0; b < n; b++ {
			t.do("span", "", b, 0, func() {})
		}
		cost[i] = time.Since(start)
	}
	return cost[1] - cost[0]
}

// ladderResult is what the traced run adds to the live figures.
type ladderResult struct {
	metrics map[string]float64
	// serialNsPerLine is the single-threaded cost of the in-process line
	// path — bus publish, log manager (with its poll), stream engine,
	// parser (with preprocess and grok), detector: the sum of the layer
	// self times core.glue_ns_per_line is taken against, and the baseline
	// of stream.speedup_vs_serial.
	serialNsPerLine float64
}

// runLadder replays the head of the workload's stream through every
// layer's public calls, single-threaded, with one span per batch per
// layer, and writes the Chrome trace.
func runLadder(ctx context.Context, pl *plan, lines int, work, tracePath string) (*ladderResult, error) {
	in := ladderInput(pl.stream, lines)
	out := map[string]float64{}

	tr := newTrace(true)
	linePath(tr, pl, in, out)
	var tracedNs time.Duration
	for _, t := range tr.totals {
		tracedNs += t.dur
	}
	out["trace.overhead_share"] = float64(spanCost(len(tr.spans))) / float64(tracedNs)

	if err := substrate(ctx, tr, pl, in, work, out); err != nil {
		return nil, err
	}
	ckptLines := in
	if len(ckptLines) > ladderLines/4 {
		ckptLines = ckptLines[:ladderLines/4]
	}
	if err := checkpointLayer(tr, pl, ckptLines, work, out); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	ns := func(layer string) float64 { return tr.total(layer).nsPerLine() }
	// Self time is a span minus the child spans inside it. Grok runs on
	// parsed lines only, so its share of a parser span is per parsed line.
	parsedShare := float64(tr.total("grok").lines) / float64(tr.total("parser").lines)
	out["tokenize.ns_per_line"] = ns("tokenize")
	out["timestamp.ns_per_line"] = ns("timestamp")
	out["preprocess.self_ns_per_line"] = ns("preprocess") - ns("tokenize") - ns("timestamp")
	out["grok.ns_per_line"] = ns("grok")
	out["parser.self_ns_per_line"] = ns("parser") - ns("preprocess") - ns("grok")*parsedShare
	out["seqdetect.ns_per_line"] = ns("seqdetect")
	out["bus.publish_ns_per_line"] = ns("bus.publish")
	out["bus.poll_ns_per_line"] = ns("bus.poll")
	out["logmanager.ns_per_line"] = ns("logmanager") - ns("bus.poll")
	out["stream.ns_per_line"] = ns("stream")
	out["store.mem_put_ns_per_doc"] = ns("store.mem_put")
	out["store.seg_put_ns_per_doc"] = ns("store.seg_put")
	out["store.sync_us"] = ns("store.sync") / 1e3
	out["store.flush_ms"] = ns("store.flush") / 1e6
	out["store.search_ms"] = ns("store.search") / 1e6
	out["netbus.publish_us"] = ns("netbus.publish") / 1e3
	out["intake.ns_per_line"] = ns("intake")

	seqShare := float64(tr.total("seqdetect").lines) / float64(tr.total("parser").lines)
	return &ladderResult{
		metrics: out,
		serialNsPerLine: ns("parser") + ns("seqdetect")*seqShare +
			ns("bus.publish") + ns("logmanager") + ns("stream"),
	}, nil
}
