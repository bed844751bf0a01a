// Command loadtest measures end-to-end pipeline throughput — the paper's
// deployment goal of handling "high volume and high velocity of the log
// streams in real-time" (§II-A). It trains a model on D1, then pushes the
// test corpus through the full service (agent → bus → log manager → engine
// → detectors → anomaly storage) repeatedly, reporting logs/second at each
// partition count.
//
//	loadtest -partitions 1,2,4,8 -logs 200000
//
// The network mode drives the intake front door instead of the in-process
// bus: N concurrent syslog-TCP or HTTP clients against a pipeline with
// listeners enabled, at a target aggregate rate, reporting accepted /
// published / shed splits.
//
//	loadtest -mode tcp -conns 64 -rate 50000 -duration 15s
//	loadtest -mode http -conns 16 -tenant-rate 1000
//
// The bus mode measures the netbus transport itself: N concurrent TCP
// publishers against a broker (an in-process one by default, or an
// external `loglens broker` via -bus), reporting publish round-trips/s.
//
//	loadtest -mode bus -conns 32 -duration 10s
//	loadtest -mode bus -bus broker-host:7070 -conns 32
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/bus"
	"loglens/internal/core"
	"loglens/internal/datagen"
	"loglens/internal/experiments"
	"loglens/internal/intake"
	"loglens/internal/netbus"
)

func main() {
	mode := flag.String("mode", "pipeline", "pipeline (in-process bus sweep), tcp (syslog TCP clients), or http (bulk JSON clients)")
	partList := flag.String("partitions", "1,2,4", "comma-separated partition counts to sweep (pipeline mode)")
	logCount := flag.Int("logs", 100000, "logs to stream per configuration (pipeline mode)")
	sources := flag.Int("sources", 4, "number of concurrent log sources (partition parallelism comes from sources)")
	seed := flag.Int64("seed", 42, "dataset seed")
	conns := flag.Int("conns", 16, "concurrent client connections (tcp/http modes)")
	rate := flag.Int("rate", 0, "target aggregate lines/s across all clients, 0 = unpaced (tcp/http modes)")
	duration := flag.Duration("duration", 10*time.Second, "load duration (tcp/http modes)")
	tenantRate := flag.Int("tenant-rate", 0, "per-tenant admission limit lines/s, 0 = unlimited (tcp/http modes)")
	busAddr := flag.String("bus", "", "external broker address for -mode bus (default: in-process broker)")
	flag.Parse()

	var err error
	switch *mode {
	case "pipeline":
		err = run(*partList, *logCount, *sources, *seed)
	case "tcp", "http":
		err = runNet(*mode, *conns, *rate, *duration, *tenantRate, *seed)
	case "bus":
		err = runBusLoad(*busAddr, *conns, *rate, *duration, *seed)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(1)
	}
}

// runNet drives the intake front door with conns concurrent clients for
// dur, pacing the aggregate offered load to rate lines/s (0 = as fast as
// the sockets take it), and reports the accepted/published/shed split.
func runNet(mode string, conns, rate int, dur time.Duration, tenantRate int, seed int64) error {
	if conns <= 0 {
		return fmt.Errorf("need at least one connection")
	}
	corpus := datagen.D1(seed)
	icfg := intake.Config{TenantRate: tenantRate}
	if mode == "tcp" {
		icfg.SyslogTCP = "127.0.0.1:0"
	} else {
		icfg.HTTP = "127.0.0.1:0"
	}
	p, err := core.New(core.Config{
		DisableHeartbeat:      true,
		DisableAnomalyStorage: true,
		Intake:                icfg,
	})
	if err != nil {
		return err
	}
	if _, _, err := p.Train("lt", experiments.ToLogs("lt", corpus.Train)); err != nil {
		return err
	}
	if err := p.Start(); err != nil {
		return err
	}
	svc := p.Intake()

	var sent atomic.Uint64
	deadline := time.Now().Add(dur)
	perConnRate := 0
	if rate > 0 {
		perConnRate = rate / conns
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var cerr error
			if mode == "tcp" {
				cerr = tcpClient(svc.TCPAddr(), id, perConnRate, deadline, corpus.Test, &sent)
			} else {
				cerr = httpClient(svc.HTTPAddr(), id, perConnRate, deadline, corpus.Test, &sent)
			}
			if cerr != nil {
				errs <- fmt.Errorf("client %d: %w", id, cerr)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		fmt.Fprintln(os.Stderr, "loadtest:", e)
	}
	if err := p.Drain(5 * time.Minute); err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := svc.Stats()
	if err := p.Stop(); err != nil {
		return err
	}

	fmt.Printf("%-8s %-7s %-12s %-10s %-10s %-10s %-10s %-10s %-12s\n",
		"mode", "conns", "elapsed", "sent", "accepted", "published", "shed", "malformed", "lines/sec")
	fmt.Printf("%-8s %-7d %-12v %-10d %-10d %-10d %-10d %-10d %-12.0f\n",
		mode, conns, elapsed.Round(time.Millisecond), sent.Load(),
		st.Accepted, st.Published, st.Shed, st.Malformed,
		float64(st.Published)/elapsed.Seconds())
	for _, ts := range st.Tenants {
		fmt.Printf("  tenant %-10s accepted %-10d published %-10d shed %d (rate %d, queue %d)\n",
			ts.Tenant, ts.Accepted, ts.Published, ts.Shed, ts.ShedRate, ts.ShedQueue)
	}
	return nil
}

// runBusLoad hammers a netbus broker with conns concurrent TCP
// publishers, each on its own connection with its own (source, seq)
// identity, and reports publish round-trips per second. With -bus it
// targets an external `loglens broker`; otherwise it spins one up
// in-process so the numbers isolate the transport.
func runBusLoad(busAddr string, conns, rate int, dur time.Duration, seed int64) error {
	if conns <= 0 {
		return fmt.Errorf("need at least one connection")
	}
	corpus := datagen.D1(seed)
	if busAddr == "" {
		srv := netbus.NewServer(bus.New())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		busAddr = addr
	}

	const topic = "loadtest"
	var sent, failed atomic.Uint64
	deadline := time.Now().Add(dur)
	perConnRate := 0
	if rate > 0 {
		perConnRate = rate / conns
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := busClient(busAddr, topic, id, perConnRate, deadline, corpus.Test, &sent, &failed); err != nil {
				errs <- fmt.Errorf("publisher %d: %w", id, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		fmt.Fprintln(os.Stderr, "loadtest:", e)
	}
	elapsed := time.Since(start)

	// Count what actually landed, straight from the broker.
	check := netbus.Dial(busAddr, netbus.Options{})
	defer check.Close()
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	cerr := check.WaitConnected(cctx)
	ccancel()
	if cerr != nil {
		return fmt.Errorf("verify landed count: %w", cerr)
	}
	var landed int64
	if parts, err := check.Partitions(topic); err == nil {
		for pi := 0; pi < parts; pi++ {
			if off, err := check.EndOffset(topic, pi); err == nil {
				landed += off
			}
		}
	}

	fmt.Printf("%-8s %-7s %-12s %-10s %-10s %-10s %-12s\n",
		"mode", "conns", "elapsed", "sent", "failed", "landed", "publish/sec")
	fmt.Printf("%-8s %-7d %-12v %-10d %-10d %-10d %-12.0f\n",
		"bus", conns, elapsed.Round(time.Millisecond), sent.Load(), failed.Load(),
		landed, float64(sent.Load())/elapsed.Seconds())
	return nil
}

// busClient publishes lines over one netbus connection until deadline.
// Every publish is a full round-trip (the broker acks each frame), so
// the reported rate is end-to-end RPC throughput, not socket bandwidth.
func busClient(addr, topic string, id, rate int, deadline time.Time, lines []string, sent, failed *atomic.Uint64) error {
	client := netbus.Dial(addr, netbus.Options{Role: "loadtest"})
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := client.WaitConnected(ctx)
	cancel()
	if err != nil {
		return err
	}
	if err := client.CreateTopic(topic, 4); err != nil {
		return err
	}
	source := fmt.Sprintf("lt-%d", id)
	i := 0
	next := time.Now()
	for time.Now().Before(deadline) {
		for j := 0; j < clientBatch; j++ {
			line := lines[i%len(lines)]
			i++
			if _, _, err := client.Publish(topic, source, []byte(line), map[string]string{"source": source}); err != nil {
				failed.Add(1)
				continue
			}
			sent.Add(1)
		}
		pace(&next, rate)
	}
	return nil
}

const clientBatch = 100

// pace sleeps so that a client sending clientBatch lines per iteration
// holds rate lines/s. next is the running schedule pointer.
func pace(next *time.Time, rate int) {
	if rate <= 0 {
		return
	}
	*next = next.Add(time.Duration(clientBatch) * time.Second / time.Duration(rate))
	if d := time.Until(*next); d > 0 {
		time.Sleep(d)
	}
}

// tcpClient streams newline-framed RFC 3164 syslog over one connection
// until deadline.
func tcpClient(addr string, id, rate int, deadline time.Time, lines []string, sent *atomic.Uint64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var buf bytes.Buffer
	i := 0
	next := time.Now()
	for time.Now().Before(deadline) {
		buf.Reset()
		for j := 0; j < clientBatch; j++ {
			fmt.Fprintf(&buf, "<14>Jan  2 15:04:05 lt sshd[%d]: %s\n", id, lines[i%len(lines)])
			i++
		}
		if _, err := conn.Write(buf.Bytes()); err != nil {
			return err
		}
		sent.Add(clientBatch)
		pace(&next, rate)
	}
	return nil
}

// httpClient posts bulk JSON batches until deadline. Shed responses (429
// and 503) are load-shedding working as intended, not client errors.
func httpClient(addr string, id, rate int, deadline time.Time, lines []string, sent *atomic.Uint64) error {
	url := "http://" + addr + "/api/ingest"
	client := &http.Client{Timeout: 30 * time.Second}
	i := 0
	next := time.Now()
	for time.Now().Before(deadline) {
		req := intake.IngestRequest{Tenant: "lt"}
		for j := 0; j < clientBatch; j++ {
			req.Lines = append(req.Lines, lines[i%len(lines)])
			i++
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK &&
			resp.StatusCode != http.StatusTooManyRequests &&
			resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
		}
		sent.Add(clientBatch)
		pace(&next, rate)
	}
	return nil
}

func run(partList string, logCount, sources int, seed int64) error {
	corpus := datagen.D1(seed)
	// Materialize the stream: the test corpus repeated to the target
	// size.
	lines := make([]string, 0, logCount)
	for len(lines) < logCount {
		n := logCount - len(lines)
		if n > len(corpus.Test) {
			n = len(corpus.Test)
		}
		lines = append(lines, corpus.Test[:n]...)
	}

	fmt.Printf("%-12s %-10s %-14s %-12s %-10s\n", "partitions", "logs", "elapsed", "logs/sec", "anomalies")
	for _, ps := range strings.Split(partList, ",") {
		parts, err := strconv.Atoi(strings.TrimSpace(ps))
		if err != nil || parts <= 0 {
			return fmt.Errorf("bad partition count %q", ps)
		}
		elapsed, anomalies, err := runOne(corpus, lines, parts, sources)
		if err != nil {
			return err
		}
		fmt.Printf("%-12d %-10d %-14v %-12.0f %-10d\n",
			parts, len(lines), elapsed.Round(time.Millisecond),
			float64(len(lines))/elapsed.Seconds(), anomalies)
	}
	return nil
}

func runOne(corpus datagen.Corpus, lines []string, partitions, sources int) (time.Duration, uint64, error) {
	p, err := core.New(core.Config{
		Partitions:            partitions,
		DisableHeartbeat:      true,
		DisableAnomalyStorage: true,
	})
	if err != nil {
		return 0, 0, err
	}
	// One model shared by every synthetic source (they all speak D1).
	if _, _, err := p.Train("lt", experiments.ToLogs("lt", corpus.Train)); err != nil {
		return 0, 0, err
	}
	if err := p.Start(); err != nil {
		return 0, 0, err
	}

	agents := make([]interface{ Send(string) error }, sources)
	for i := range agents {
		ag, err := p.Agent(fmt.Sprintf("src-%d", i), 0)
		if err != nil {
			return 0, 0, err
		}
		agents[i] = ag
	}

	// Route whole corpus copies to one source each, so event traces stay
	// intact within a source and the detector exercises its normal path.
	chunk := len(corpus.Test)
	start := time.Now()
	for i, line := range lines {
		if err := agents[(i/chunk)%sources].Send(line); err != nil {
			return 0, 0, err
		}
	}
	if err := p.Drain(10 * time.Minute); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	anomalies := p.AnomalyCount()
	if err := p.Stop(); err != nil {
		return 0, 0, err
	}
	return elapsed, anomalies, nil
}
