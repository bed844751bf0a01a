package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/agent"
	"loglens/internal/anomaly"
	"loglens/internal/core"
	"loglens/internal/metrics"
	"loglens/internal/store"
)

const (
	// inflightWindow bounds how many lines a closed-loop generator keeps
	// between publish and verdict.
	inflightWindow = 65536
	// drainDeadline is how long a run waits for the last verdicts; lines
	// still unanswered then count as failed.
	drainDeadline = 60 * time.Second
	// queryEvery is the cadence of the anomaly query that runs beside
	// the writes.
	queryEvery = 100 * time.Millisecond
)

// anomalyQuery is the dashboard's default anomaly listing: the newest
// hundred.
var anomalyQuery = store.Query{SortBy: "ts", Desc: true, Limit: 100}

// generators is how many goroutines or connections feed the system: at
// most one per CPU, at most one per source.
func generators() int {
	n := runtime.NumCPU()
	if n > numSources {
		n = numSources
	}
	return n
}

// sourcesOf lists the sources generator g of n feeds.
func sourcesOf(g, n int) []int {
	var mine []int
	for s := g; s < numSources; s += n {
		mine = append(mine, s)
	}
	return mine
}

// verdictLog collects what an in-process pipeline reports through
// OnAnomaly: the anomaly multiset and the probe arrivals.
type verdictLog struct {
	probes *probeBook
	mu     sync.Mutex
	got    map[verdict]int
}

func newVerdictLog(probes *probeBook) *verdictLog {
	return &verdictLog{probes: probes, got: make(map[verdict]int)}
}

func (v *verdictLog) onAnomaly(r anomaly.Record) {
	now := time.Now()
	if r.Type == anomaly.UnparsedLog && len(r.Logs) > 0 {
		if serial, ok := parseProbe(r.Logs[0].Raw); ok {
			v.probes.verdict(serial, now)
		}
	}
	v.mu.Lock()
	v.got[verdictOf(r)]++
	v.mu.Unlock()
}

// processedCounter reads how many lines have a verdict: parsed plus
// unparsed.
type processedCounter struct{ parsed, unparsed *metrics.Counter }

func newProcessedCounter(reg *metrics.Registry) processedCounter {
	return processedCounter{reg.Counter("core_parsed_total"), reg.Counter("core_unparsed_total")}
}

func (c processedCounter) value() int { return int(c.parsed.Value() + c.unparsed.Value()) }

// awaitProcessed waits until want lines have a verdict and reports how
// many did by the deadline.
func awaitProcessed(done func() int, want int, deadline time.Duration) int {
	limit := time.Now().Add(deadline)
	for {
		n := done()
		if n >= want || time.Now().After(limit) {
			return n
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// finish injects the final heartbeat of every source, lets it drain,
// stops the pipeline and checks its verdicts against the reference.
func finish(p *core.Pipeline, pl *plan, verdicts *verdictLog, out *live) error {
	hb := finalHeartbeat(pl.stream)
	for _, src := range pl.stream.sources {
		p.InjectHeartbeat(src, hb)
	}
	if err := p.Drain(drainDeadline); err != nil {
		out.fail(1, "final drain: %v", err)
	}
	// Stop drains the engine through the sink, so every verdict has
	// reached the callback when it returns.
	if err := p.Stop(); err != nil {
		return fmt.Errorf("stop pipeline: %w", err)
	}
	verdicts.mu.Lock()
	diff, examples := diffVerdicts(verdicts.got, pl.expect.anomalies)
	verdicts.mu.Unlock()
	out.fail(diff, "anomaly multiset differs from the reference: %v", examples)
	out.latenciesMs = append(out.latenciesMs, verdicts.probes.latencies()...)
	out.fail(verdicts.probes.lost(), "probes without a verdict")
	out.fail(verdicts.probes.stray, "probe verdicts that match no sent probe")
	return nil
}

// runClosed is the closed-loop in-process workload: rounds of the whole
// stream on a fresh pipeline each, published straight onto the pipeline's
// bus with a bounded in-flight window, until the measuring time is used
// up. Each round is one segment.
func runClosed(ctx context.Context, pl *plan, seconds float64) (*live, error) {
	out := &live{extra: make(map[string]float64)}
	total := pl.stream.total()
	begin := time.Now()
	var lagSamples []float64
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if round > 0 && time.Since(begin).Seconds() >= seconds {
			break
		}
		runtime.GC() // the previous round's pipeline, outside the timed part
		p, err := core.New(core.Config{DisableHeartbeat: true})
		if err != nil {
			return nil, err
		}
		p.InstallModel(pl.model)
		roundStart := time.Now()
		probes := newProbeBook(pl.stream.probeSerials(), roundStart)
		verdicts := newVerdictLog(probes)
		p.OnAnomaly(verdicts.onAnomaly)
		if err := p.Start(); err != nil {
			return nil, err
		}
		processed := newProcessedCounter(p.Metrics())
		lag, err := p.Bus().Subscribe("log-manager", agent.LogsTopic)
		if err != nil {
			return nil, err
		}

		stopQueries := startQueries(func() error {
			p.Anomalies(anomalyQuery)
			return nil
		})

		cpu0 := selfCPU()
		var published atomic.Int64
		var wg sync.WaitGroup
		gens := generators()
		for g := 0; g < gens; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				publishClosed(p, pl, g, gens, probes, &published, processed)
			}(g)
		}
		// Sample the log manager's lag while the generators run.
		gensDone := make(chan struct{})
		go func() {
			defer close(gensDone)
			wg.Wait()
		}()
		for sending := true; sending; {
			select {
			case <-gensDone:
				sending = false
			case <-time.After(10 * time.Millisecond):
				lagSamples = append(lagSamples, float64(lag.Lag()))
			}
		}
		done := awaitProcessed(processed.value, total, drainDeadline)
		wall := time.Since(roundStart)
		cpu := selfCPU() - cpu0
		queries, _ := stopQueries()

		out.attempted += total + probes.sentCount() + len(queries)
		out.fail(total-done, "lines without a verdict after %v", drainDeadline)
		if err := finish(p, pl, verdicts, out); err != nil {
			return nil, err
		}
		out.queriesMs = append(out.queriesMs, queries...)
		out.segments = append(out.segments, segment{
			lines: done,
			wall:  wall,
			cpu:   cpu,
		})
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.peakRSSMB = rss
	out.extra["logmanager.lag_p95_lines"] = quantileOrZero(lagSamples, 0.95)
	return out, nil
}

// publishClosed is generator g of n: it publishes the lines of its
// sources in stream order, interleaving the sources line by line, and
// pauses whenever the in-flight window is full.
func publishClosed(p *core.Pipeline, pl *plan, g, n int, probes *probeBook, published *atomic.Int64, processed processedCounter) {
	bus := p.Bus()
	mine := sourcesOf(g, n)
	sent := 0
	for k := 0; k < len(pl.stream.lines[0]); k++ {
		for _, s := range mine {
			if pl.stream.isProbe(k) {
				probes.sent(pl.stream.probeSerial(s, k), time.Now())
			}
			bus.Publish(agent.LogsTopic, pl.stream.sources[s], pl.payload[s][k], pl.headers[s])
			sent++
			if sent%64 == 0 {
				inflight := published.Add(64) - int64(processed.value())
				for inflight > inflightWindow {
					time.Sleep(200 * time.Microsecond)
					inflight = published.Load() - int64(processed.value())
				}
			}
		}
	}
	published.Add(int64(sent % 64))
}
