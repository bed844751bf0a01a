// Command loglens runs the LogLens service on files: it learns models from
// a training log (the system's "correct" behaviour), then streams a
// production log through the full pipeline and reports anomalies.
//
//	loglens -train normal.log -stream production.log
//	loglens -train normal.log -stream - -dashboard :8080
//
// With -dashboard the visualization server stays up after the stream ends
// (Ctrl-C to exit); -final-heartbeat injects a trailing heartbeat so
// events that never completed are reported as missing-end anomalies. On
// SIGINT/SIGTERM the dashboard drains in-flight requests and the flight
// recorder is flushed to stderr; -trace-out writes the retained span
// window as Chrome trace-event JSON at exit.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/core"
	"loglens/internal/dashboard"
	"loglens/internal/heartbeat"
	"loglens/internal/intake"
	"loglens/internal/logtypes"
	"loglens/internal/modelmgr"
	"loglens/internal/netbus"
	"loglens/internal/obs"
	"loglens/internal/preprocess"
)

type options struct {
	trainPath    string
	streamPath   string
	source       string
	dashAddr     string
	hbInterval   time.Duration
	finalHB      bool
	rate         int
	quiet        bool
	loadModel    string
	saveModel    string
	volumeWindow time.Duration
	listen       string
	metrics      bool
	traceOut     string
	ckptDir      string
	ckptInterval time.Duration
	dataDir      string
	retention    time.Duration
	syslogUDP    string
	syslogTCP    string
	listenHTTP   string
	tenantRate   int
	intakeQueue  int
	sloE2EMs     int
	busAddr      string
}

func main() {
	// Subcommands dispatch before flag parsing; everything else is the
	// classic train-and-stream invocation.
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		os.Exit(watchMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "broker" {
		os.Exit(brokerMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.trainPath, "train", "", "training log file (required unless -load-model)")
	flag.StringVar(&o.streamPath, "stream", "", "log file to analyze ('-' for stdin; required)")
	flag.StringVar(&o.source, "source", "default", "log source name")
	flag.StringVar(&o.dashAddr, "dashboard", "", "serve the dashboard on this address (e.g. :8080)")
	flag.DurationVar(&o.hbInterval, "heartbeat", time.Second, "heartbeat controller interval (0 disables)")
	flag.BoolVar(&o.finalHB, "final-heartbeat", true, "inject a trailing heartbeat at end of stream")
	flag.IntVar(&o.rate, "rate", 0, "replay rate in logs/sec (0 = unthrottled)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-anomaly output")
	flag.StringVar(&o.loadModel, "load-model", "", "load a model JSON file instead of training")
	flag.StringVar(&o.saveModel, "save-model", "", "write the trained model to this JSON file")
	flag.DurationVar(&o.volumeWindow, "volume-window", 0, "also learn a per-pattern rate profile with this window (enables the volume detector)")
	flag.StringVar(&o.listen, "listen", "", "also serve the bus protocol to remote agents (shiplogs -bus) on this TCP address (e.g. :5044); not with -bus")
	flag.BoolVar(&o.metrics, "metrics", false, "dump the metrics registry (expvar-style text) to stderr after the stream ends")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the retained span window as Chrome trace JSON to this file at exit")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "enable crash recovery: write periodic checkpoints to this directory and restore from it at startup")
	flag.DurationVar(&o.ckptInterval, "checkpoint-interval", 30*time.Second, "periodic checkpoint cadence when -checkpoint-dir is set (0 = only explicit/final checkpoints)")
	flag.StringVar(&o.dataDir, "data-dir", "", "persist log/model/anomaly storage to this directory (WAL + immutable segments; survives restarts)")
	flag.DurationVar(&o.retention, "retention", 0, "age log/anomaly segments out after this duration (0 keeps everything; models are always kept)")
	flag.StringVar(&o.syslogUDP, "listen-syslog-udp", "", "accept syslog datagrams (RFC3164/RFC5424) on this UDP address (e.g. :5514)")
	flag.StringVar(&o.syslogTCP, "listen-syslog-tcp", "", "accept syslog streams (newline or octet-counted framing) on this TCP address (e.g. :5514)")
	flag.StringVar(&o.listenHTTP, "listen-http", "", "accept JSON log batches via POST /api/ingest on this address (e.g. :5515)")
	flag.IntVar(&o.tenantRate, "tenant-rate", 0, "per-tenant intake rate limit in lines/sec (0 = unlimited); TCP senders over it are slowed, UDP/HTTP lines shed")
	flag.IntVar(&o.intakeQueue, "intake-queue", 0, "bounded intake queue depth between the listeners and the bus (0 = default 8192)")
	flag.IntVar(&o.sloE2EMs, "slo-e2e-ms", 0, "end-to-end latency SLO in milliseconds: lines slower than this count in latency_slo_breach_total and /api/latency (0 disables)")
	flag.StringVar(&o.busAddr, "bus", "", "run against an external broker at this address (see `loglens broker`) instead of the in-process bus")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "loglens:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if (o.trainPath == "" && o.loadModel == "") || o.streamPath == "" {
		return fmt.Errorf("-stream and one of -train/-load-model are required")
	}
	if o.listen != "" && o.busAddr != "" {
		// A worker on an external broker has no local bus to serve.
		return fmt.Errorf("-listen serves the in-process bus, which -bus replaces: point agents at the broker instead (shiplogs -bus %s)", o.busAddr)
	}

	clk := clock.New()
	ops := obs.New(clk)

	// First SIGINT/SIGTERM starts an orderly drain; stop() restores the
	// default disposition so a second signal force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	var extBus bus.Broker
	if o.busAddr != "" {
		client := netbus.Dial(o.busAddr, netbus.Options{Clock: clk, Role: "worker"})
		defer client.Close()
		wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
		err := client.WaitConnected(wctx)
		wcancel()
		if err != nil {
			return fmt.Errorf("connect to broker %s: %w", o.busAddr, err)
		}
		fmt.Fprintf(os.Stderr, "connected to broker %s\n", o.busAddr)
		extBus = client
	}

	p, err := core.New(core.Config{
		Bus:              extBus,
		Clock:            clk,
		Ops:              ops,
		DisableHeartbeat: o.hbInterval <= 0,
		Heartbeat:        heartbeat.Config{Interval: o.hbInterval},
		ArchiveLogs:      true,
		SLOE2E:           time.Duration(o.sloE2EMs) * time.Millisecond,
		Builder:          modelmgr.BuilderConfig{VolumeWindow: o.volumeWindow},
		Recovery:         core.RecoveryConfig{Dir: o.ckptDir, Interval: o.ckptInterval},
		Intake: intake.Config{
			SyslogUDP:   o.syslogUDP,
			SyslogTCP:   o.syslogTCP,
			HTTP:        o.listenHTTP,
			TenantRate:  o.tenantRate,
			QueueDepth:  o.intakeQueue,
			IdleTimeout: 5 * time.Minute,
		},
		Storage: core.StorageConfig{
			Dir:       o.dataDir,
			Retention: o.retention,
			// Real deployment cadence: flush every 30s, consider
			// compaction every 5m, age segments out every minute.
			FlushInterval:     30 * time.Second,
			CompactInterval:   5 * time.Minute,
			RetentionInterval: time.Minute,
		},
	})
	if err != nil {
		return err
	}
	if o.ckptDir != "" {
		restored, err := p.Restore()
		if err != nil {
			return fmt.Errorf("restore checkpoint: %w", err)
		}
		if restored {
			fmt.Fprintf(os.Stderr, "restored from checkpoint in %s\n", o.ckptDir)
		}
	}

	var model *modelmgr.Model
	if o.loadModel != "" {
		data, err := os.ReadFile(o.loadModel)
		if err != nil {
			return err
		}
		model = &modelmgr.Model{}
		if err := json.Unmarshal(data, model); err != nil {
			return fmt.Errorf("parse %s: %w", o.loadModel, err)
		}
		if err := p.Manager().Save(model); err != nil {
			return err
		}
		p.InstallModel(model)
		fmt.Fprintf(os.Stderr, "loaded model %q: %d patterns, %d automata\n",
			model.ID, model.Patterns.Len(), len(model.Sequence.Automata))
	} else {
		trainLogs, err := readLogs(o.trainPath, o.source, clk)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "training on %d logs from %s...\n", len(trainLogs), o.trainPath)
		start := clk.Now()
		var report *modelmgr.BuildReport
		model, report, err = p.Train("file-model", trainLogs)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "model %q: %d patterns, %d automata, %d/%d patterns with event IDs (%v)\n",
			model.ID, report.Patterns, report.Automata, report.CoveredPatterns, report.Patterns, clk.Since(start).Round(time.Millisecond))
	}
	if o.saveModel != "" {
		data, err := json.MarshalIndent(model, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.saveModel, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "model written to %s\n", o.saveModel)
	}

	source, dashAddr, rate, quiet, finalHB, streamPath := o.source, o.dashAddr, o.rate, o.quiet, o.finalHB, o.streamPath

	var lastLogTime time.Time
	p.OnAnomaly(func(r anomaly.Record) {
		if quiet {
			return
		}
		fmt.Printf("ANOMALY %-26s severity=%-8s source=%s event=%s  %s\n",
			r.Type, r.Severity, r.Source, r.EventID, r.Reason)
	})

	if err := p.Start(); err != nil {
		return err
	}
	defer p.Stop()

	if o.listen != "" {
		// The broker's server over the pipeline's own bus: agents ship
		// here exactly as they ship to `loglens broker`. Deferred after
		// p.Stop, so it closes first.
		srv := netbus.NewServer(p.Bus())
		srv.SetMetrics(p.Metrics())
		bound, err := srv.Listen(o.listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "accepting remote agents on %s (shiplogs -bus %s -source ...)\n", bound, bound)
	}
	if svc := p.Intake(); svc != nil {
		if a := svc.UDPAddr(); a != "" {
			fmt.Fprintf(os.Stderr, "accepting syslog datagrams on udp %s\n", a)
		}
		if a := svc.TCPAddr(); a != "" {
			fmt.Fprintf(os.Stderr, "accepting syslog streams on tcp %s\n", a)
		}
		if a := svc.HTTPAddr(); a != "" {
			fmt.Fprintf(os.Stderr, "accepting JSON batches on http://%s/api/ingest\n", a)
		}
	}

	var httpSrv *http.Server
	if dashAddr != "" {
		httpSrv = &http.Server{Addr: dashAddr, Handler: dashboard.New(p)}
		go func() {
			fmt.Fprintf(os.Stderr, "dashboard on http://%s/\n", dashAddr)
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "dashboard:", err)
			}
		}()
	}

	ag, err := p.Agent(source, rate)
	if err != nil {
		return err
	}

	in := os.Stdin
	if streamPath != "-" {
		f, err := os.Open(streamPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	pp := preprocess.New(nil, nil)
	n := 0
	// Scan on a separate goroutine: a blocked read (stdin in serve mode)
	// must not keep a signal from reaching the drain-and-flush path.
	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		defer close(lines)
		for scanner.Scan() {
			select {
			case lines <- scanner.Text():
			case <-ctx.Done():
				return
			}
		}
		scanErr <- scanner.Err()
	}()
stream:
	for {
		var line string
		var ok bool
		select {
		case <-ctx.Done():
			break stream
		case line, ok = <-lines:
			if !ok {
				break stream
			}
		}
		if line == "" {
			continue
		}
		if err := ag.Send(line); err != nil {
			return err
		}
		n++
		if r := pp.Process(line); r.HasTime && r.Time.After(lastLogTime) {
			lastLogTime = r.Time
		}
	}
	select {
	case err := <-scanErr:
		if err != nil {
			return err
		}
	default: // reader still blocked mid-scan; shutdown abandons it
	}
	// A signal bounds the drain tightly — flushing the flight recorder
	// promptly beats emptying the bus.
	drainBudget := 5 * time.Minute
	if ctx.Err() != nil {
		drainBudget = 10 * time.Second
	}
	// The front door drains before anything else winds down: in-flight
	// intake connections finish, the intake queue empties into the bus —
	// so the Drain below (and the final checkpoint after it) sees every
	// acked line. Before this ordering, SIGTERM only drained stdin and
	// acked network lines could die in the intake queue.
	if svc := p.Intake(); svc != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := svc.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "intake drain:", err)
		}
		cancel()
	}
	if err := p.Drain(drainBudget); err != nil {
		if ctx.Err() == nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if finalHB && ctx.Err() == nil {
		t := lastLogTime
		if t.IsZero() {
			t = clk.Now()
		}
		p.InjectHeartbeat(source, t.Add(24*time.Hour))
		if err := p.Drain(time.Minute); err != nil {
			return err
		}
	}

	if o.ckptDir != "" {
		gen, err := p.Checkpoint()
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
		} else {
			fmt.Fprintf(os.Stderr, "checkpoint generation %d written to %s\n", gen, o.ckptDir)
		}
	}

	fmt.Fprintf(os.Stderr, "processed %d logs: %d anomalies (%d unparsed)\n",
		n, p.AnomalyCount(), p.UnparsedCount())

	if o.metrics {
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		p.Metrics().Snapshot().WriteText(os.Stderr)
	}

	if dashAddr != "" && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "stream done; dashboard still serving (Ctrl-C to exit)")
		<-ctx.Done()
	}
	if ctx.Err() != nil {
		// Orderly shutdown: note it in the black box, drain the HTTP
		// server, then flush the recorder so the last events of the
		// incident land on stderr.
		ops.Events.Record(obs.EventShutdown, "loglens", "signal received, draining", 0)
		drainServer(httpSrv)
		fmt.Fprintln(os.Stderr, "--- flight recorder ---")
		if _, err := ops.Events.WriteTo(os.Stderr); err != nil {
			return err
		}
	} else {
		drainServer(httpSrv)
	}
	return writeTrace(o.traceOut, ops)
}

// drainServer shuts the dashboard server down gracefully, bounding the
// in-flight-request drain at five seconds.
func drainServer(srv *http.Server) {
	if srv == nil {
		return
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "dashboard shutdown:", err)
	}
}

// writeTrace exports the retained span window as Chrome trace JSON.
func writeTrace(path string, ops *obs.Ops) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ops.Spans.WriteChromeTrace(f, time.Time{}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	return nil
}

func readLogs(path, source string, clk clock.Clock) ([]logtypes.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logtypes.Log
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	seq := uint64(0)
	for scanner.Scan() {
		line := scanner.Text()
		if line == "" {
			continue
		}
		seq++
		out = append(out, logtypes.Log{Source: source, Seq: seq, Arrival: clk.Now(), Raw: line})
	}
	return out, scanner.Err()
}
