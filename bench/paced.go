package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"loglens/internal/agent"
	"loglens/internal/core"
	"loglens/internal/intake"
)

const (
	// timedSegments is how many equal pieces a timed run is cut into.
	timedSegments = 5
	// paceTick is how often an open-loop connection wakes to send what
	// has come due.
	paceTick = 2 * time.Millisecond
)

// syslogFrame renders one line as the syslog front door receives it:
// RFC 3164 with the source as hostname (the intake's tenant key),
// newline-framed per RFC 6587.
func syslogFrame(source, line string) []byte {
	return []byte("<14>Feb  5 17:32:18 " + source + " bench: " + line + "\n")
}

// checkFrame makes sure the intake forwards exactly the line the model
// was trained on, under the source's name.
func checkFrame(source, line string) error {
	frame := syslogFrame(source, line)
	m, err := intake.ParseSyslog(frame[:len(frame)-1])
	if err != nil {
		return fmt.Errorf("syslog frame does not parse: %w", err)
	}
	if m.Hostname != source || m.Msg != line {
		return fmt.Errorf("intake would forward %q from %q, want %q from %q", m.Msg, m.Hostname, line, source)
	}
	return nil
}

// dueAt is when global line number i of an open-loop run is scheduled.
func dueAt(start time.Time, i int) time.Time {
	return start.Add(time.Duration(float64(i) / pacedRate * float64(time.Second)))
}

// runPaced is the open-loop workload: a fixed rate for the whole measuring
// time over the syslog TCP front door, into a pipeline that archives
// every line in the persistent store, while a reader queries the anomaly
// index. Probes are timed from their scheduled send.
func runPaced(ctx context.Context, pl *plan, seconds float64) (*live, error) {
	out := &live{extra: make(map[string]float64)}
	dataDir, err := os.MkdirTemp(pl.work, "paced-data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	segLen := time.Duration(seconds * float64(time.Second) / timedSegments)
	p, err := core.New(core.Config{
		DisableHeartbeat: true,
		ArchiveLogs:      true,
		Intake:           intake.Config{SyslogTCP: "127.0.0.1:0"},
		// Flush once per segment, so every run sees the same number of
		// flushes however long it measures.
		Storage: core.StorageConfig{Dir: filepath.Join(dataDir, "store"), FlushInterval: segLen},
	})
	if err != nil {
		return nil, err
	}
	p.InstallModel(pl.model)
	total := pl.stream.total()
	start := time.Now().Add(50 * time.Millisecond) // connections are up by then
	probes := newProbeBook(pl.stream.probeSerials(), start)
	verdicts := newVerdictLog(probes)
	p.OnAnomaly(verdicts.onAnomaly)
	if err := p.Start(); err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			p.Stop()
		}
	}()
	processed := newProcessedCounter(p.Metrics())
	lag, err := p.Bus().Subscribe("log-manager", agent.LogsTopic)
	if err != nil {
		return nil, err
	}

	gens := generators()
	conns := make([]net.Conn, gens)
	for g := range conns {
		c, err := net.Dial("tcp", p.Intake().TCPAddr())
		if err != nil {
			return nil, fmt.Errorf("dial syslog intake: %w", err)
		}
		defer c.Close()
		conns[g] = c
	}

	stopQueries := startQueries(func() error {
		p.Anomalies(anomalyQuery)
		return nil
	})

	var wg sync.WaitGroup
	lateMs := make([][]float64, gens)
	sendErr := make([]error, gens)
	for g := range conns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lateMs[g], sendErr[g] = sendPaced(ctx, conns[g], pl, g, gens, start, probes)
		}(g)
	}

	// Cut the sending time into segments at fixed instants.
	var lagSamples []float64
	prevDone, prevCPU := 0, selfCPU()
	time.Sleep(time.Until(start))
	for i := 1; i <= timedSegments; i++ {
		boundary := start.Add(time.Duration(i) * segLen)
		for time.Now().Before(boundary) {
			lagSamples = append(lagSamples, float64(lag.Lag()))
			time.Sleep(10 * time.Millisecond)
		}
		done, cpu := processed.value(), selfCPU()
		out.segments = append(out.segments, segment{
			lines: done - prevDone,
			wall:  segLen,
			cpu:   cpu - prevCPU,
		})
		prevDone, prevCPU = done, cpu
	}
	wg.Wait()
	for _, err := range sendErr {
		if err != nil {
			return nil, fmt.Errorf("syslog generator: %w", err)
		}
	}
	out.queriesMs, _ = stopQueries()
	backlog := total - processed.value()
	if backlog > pacedRate {
		out.fail(backlog, "backlog at the end of sending exceeds one second of input")
	}
	for _, c := range conns {
		c.Close()
	}
	done := awaitProcessed(processed.value, total, drainDeadline)
	out.attempted = total + probes.sentCount() + len(out.queriesMs)
	out.fail(total-done, "lines without a verdict after %v", drainDeadline)
	stats := p.Intake().Stats()
	out.fail(int(stats.Shed), "lines shed by the intake")
	out.extra["intake.shed_lines"] = float64(stats.Shed)
	stopped = true
	if err := finish(p, pl, verdicts, out); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.peakRSSMB = rss
	var late []float64
	for _, l := range lateMs {
		late = append(late, l...)
	}
	out.extra["gen.late_p99_ms"] = quantileOrZero(late, 0.99)
	out.extra["logmanager.lag_p95_lines"] = quantileOrZero(lagSamples, 0.95)
	return out, nil
}

// sendPaced is connection g of n of the open-loop generator: every tick
// it writes the frames of its sources that have come due, and returns how
// late each of its probes left.
func sendPaced(ctx context.Context, conn net.Conn, pl *plan, g, n int, start time.Time, probes *probeBook) ([]float64, error) {
	mine := sourcesOf(g, n)
	perSource := len(pl.stream.lines[0])
	next := make([]int, numSources) // next position per source
	var lateMs []float64
	var buf []byte
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := time.Now()
		due := int(now.Sub(start).Seconds() * pacedRate) // global lines due by now
		buf = buf[:0]
		left := false
		for _, s := range mine {
			// Position k of source s is global line k*numSources+s.
			for ; next[s] < perSource && next[s]*numSources+s < due; next[s]++ {
				k := next[s]
				if pl.stream.isProbe(k) {
					at := dueAt(start, k*numSources+s)
					probes.sent(pl.stream.probeSerial(s, k), at)
					lateMs = append(lateMs, float64(now.Sub(at))/1e6)
				}
				buf = append(buf, pl.payload[s][k]...)
			}
			left = left || next[s] < perSource
		}
		if len(buf) > 0 {
			if _, err := conn.Write(buf); err != nil {
				return nil, err
			}
		}
		if !left {
			return lateMs, nil
		}
		time.Sleep(paceTick)
	}
}
