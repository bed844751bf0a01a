package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"loglens/internal/agent"
	"loglens/internal/modelmgr"
	"loglens/internal/netbus"
)

const (
	// readyTimeout bounds how long a child may take to become ready.
	readyTimeout = 20 * time.Second
	// pollEvery is the cadence of the worker-counter poll (20 Hz).
	pollEvery = 50 * time.Millisecond
	// spoolDepth bounds how far a publisher runs ahead of its broker
	// acks, well inside the in-memory spool's byte cap.
	spoolDepth = 512
)

// clusterFiles is what set-up leaves for the cluster workload: the built
// loglens binary and the trained model as a file.
type clusterFiles struct {
	dir, bin, model string
}

// repoRoot finds the loglens module the benchmark sits in, walking up
// from the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module loglens\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no loglens go.mod above the working directory: run the benchmark from a checkout of the repository")
		}
		dir = parent
	}
}

// buildCluster builds cmd/loglens and writes the model file, both into a
// fresh directory under work.
func buildCluster(ctx context.Context, m *modelmgr.Model, work string) (*clusterFiles, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "cluster-")
	if err != nil {
		return nil, err
	}
	f := &clusterFiles{dir: dir, bin: filepath.Join(dir, "loglens"), model: filepath.Join(dir, "model.json")}
	build := exec.CommandContext(ctx, "go", "build", "-o", f.bin, "./cmd/loglens")
	build.Dir = root
	if outp, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("go build ./cmd/loglens: %v\n%s", err, outp)
	}
	data, err := json.Marshal(m)
	if err == nil {
		err = os.WriteFile(f.model, data, 0o644)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("write model file: %w", err)
	}
	return f, nil
}

// tailBuffer keeps the last bytes a child wrote to stderr, for the error
// message when it dies or never becomes ready.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one system-under-test process.
type child struct {
	name   string
	cmd    *exec.Cmd
	stderr *tailBuffer
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited
}

// startChild launches a binary that dies with this process (Pdeathsig)
// and is killed when ctx ends.
func startChild(ctx context.Context, name, bin string, args []string, stdin io.Reader, stdout io.Writer) (*child, error) {
	c := &child{name: name, stderr: &tailBuffer{}, exited: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, bin, args...)
	c.cmd.Stdin, c.cmd.Stdout, c.cmd.Stderr = stdin, stdout, c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.WaitDelay = 5 * time.Second
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

func (c *child) died() error {
	return fmt.Errorf("%s exited early (%v); stderr tail:\n%s", c.name, c.err, c.stderr)
}

// stop asks the child to terminate, kills it if it does not within ten
// seconds, and returns once it has ended.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// freeAddr picks a loopback address that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// awaitReady polls probe until it succeeds, the child dies, or
// readyTimeout passes.
func awaitReady(ctx context.Context, c *child, probe func() bool) error {
	limit := time.Now().Add(readyTimeout)
	for {
		if probe() {
			return nil
		}
		select {
		case <-c.exited:
			return c.died()
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(limit) {
			return fmt.Errorf("%s not ready after %v; stderr tail:\n%s", c.name, readyTimeout, c.stderr)
		}
	}
}

// workerCounters is the part of the worker's /api/metrics the benchmark
// reads.
type workerCounters struct {
	lines, processed, anomalies int
}

func fetchCounters(client *http.Client, base string) (workerCounters, error) {
	var wc workerCounters
	resp, err := client.Get(base + "/api/metrics")
	if err != nil {
		return wc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return wc, fmt.Errorf("GET /api/metrics: status %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return wc, err
	}
	for k, v := range snap.Counters {
		name, _, _ := strings.Cut(k, "{")
		switch name {
		case "core_lines_total":
			wc.lines += int(v)
		case "core_parsed_total", "core_unparsed_total":
			wc.processed += int(v)
		case "core_anomalies_total":
			wc.anomalies += int(v)
		}
	}
	return wc, nil
}

// stdoutVerdicts reads the worker's "ANOMALY ..." lines: it builds the
// anomaly multiset and matches unparsed-log lines to probes in FIFO
// order per source (the worker prints no serial).
type stdoutVerdicts struct {
	probes *probeBook
	mu     sync.Mutex
	got    map[verdict]int
	seen   []int // unparsed-log lines seen per source
}

func (v *stdoutVerdicts) consume(r io.Reader, st *logStream) {
	index := make(map[string]int, len(st.sources))
	for i, s := range st.sources {
		index[s] = i
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		now := time.Now()
		f := strings.Fields(sc.Text())
		if len(f) < 5 || f[0] != "ANOMALY" {
			continue
		}
		vd := verdict{
			Type:   f[1],
			Source: strings.TrimPrefix(f[3], "source="),
			Event:  strings.TrimPrefix(f[4], "event="),
		}
		v.mu.Lock()
		v.got[vd]++
		if s, ok := index[vd.Source]; ok && vd.Type == "unparsed-log" {
			v.probes.verdict(st.probeSerial(s, st.nthProbe(v.seen[s])), now)
			v.seen[s]++
		}
		v.mu.Unlock()
	}
}

// runCluster drives the real binaries: a broker and a worker as child
// processes, the harness as the agent tier publishing over netbus in a
// closed loop for the measuring time.
func runCluster(ctx context.Context, pl *plan, seconds float64) (*live, error) {
	out := &live{extra: make(map[string]float64)}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // kills any child still running on every exit path
	runDir, err := os.MkdirTemp(pl.work, "cluster-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	busAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dashAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	broker, err := startChild(ctx, "broker", pl.cluster.bin, []string{"broker", "-listen", busAddr}, nil, nil)
	if err != nil {
		return nil, err
	}
	defer broker.stop()
	if err := awaitReady(ctx, broker, func() bool {
		c, err := net.DialTimeout("tcp", busAddr, 200*time.Millisecond)
		if err != nil {
			return false
		}
		c.Close()
		return true
	}); err != nil {
		return nil, err
	}

	segLen := time.Duration(seconds * float64(time.Second) / timedSegments)
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer stdinW.Close() // held open: the worker streams stdin until told to stop
	stdoutR, stdoutW, err := os.Pipe()
	if err != nil {
		stdinR.Close()
		return nil, err
	}
	worker, err := startChild(ctx, "worker", pl.cluster.bin, []string{
		"-bus", busAddr,
		"-load-model", pl.cluster.model,
		"-data-dir", filepath.Join(runDir, "data"),
		"-checkpoint-dir", filepath.Join(runDir, "ckpt"),
		// Recovery on (commit-gated at-least-once consumption, final
		// checkpoint), periodic checkpoints off: under sustained input a
		// periodic checkpoint's quiesce barrier waits for the committed
		// lag to reach zero while intake is paused, which it cannot, so
		// the worker stalls for the 30 s barrier timeout and the
		// checkpoint fails. See README.md, "Known gaps".
		"-checkpoint-interval", "0",
		"-heartbeat", "0",
		"-dashboard", dashAddr,
		"-stream", "-",
	}, stdinR, stdoutW)
	stdinR.Close()
	stdoutW.Close()
	if err != nil {
		stdoutR.Close()
		return nil, err
	}
	defer worker.stop()

	start := time.Now()
	probes := newProbeBook(pl.stream.probeSerials(), start)
	verdicts := &stdoutVerdicts{probes: probes, got: make(map[verdict]int), seen: make([]int, numSources)}
	stdoutDone := make(chan struct{})
	go func() {
		defer close(stdoutDone)
		defer stdoutR.Close()
		verdicts.consume(stdoutR, pl.stream)
	}()

	httpc := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + dashAddr
	if err := awaitReady(ctx, worker, func() bool {
		resp, err := httpc.Get(base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return nil, err
	}

	// The 20 Hz poll feeds the generators' in-flight window and samples
	// how many lines are in flight.
	var processed, totalSent atomic.Int64
	var inflightSamples []float64
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				if wc, err := fetchCounters(httpc, base); err == nil {
					processed.Store(int64(wc.processed))
					inflightSamples = append(inflightSamples, float64(totalSent.Load()-int64(wc.processed)))
				}
			}
		}
	}()
	defer func() {
		select {
		case <-stopPoll:
		default:
			close(stopPoll)
		}
		pollWG.Wait()
	}()

	stopQueries := startQueries(func() error {
		resp, err := httpc.Get(base + "/api/anomalies?limit=100")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	})

	// Generators: one netbus connection each, closed loop until the
	// measuring time is over or the stream ends.
	gens := generators()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	sent := make([]int, numSources) // lines sent per source, written by its generator
	genErr := make([]error, gens)
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			genErr[g] = publishCluster(ctx, busAddr, pl, g, gens, deadline, probes, sent, &totalSent, &processed)
		}(g)
	}

	// Segments are cut at fresh counter reads, so each one's length and
	// line count belong together.
	pids := []int{broker.cmd.Process.Pid, worker.cmd.Process.Pid}
	childCPU := func() time.Duration {
		var sum time.Duration
		for _, pid := range pids {
			if d, err := procCPU(pid); err == nil {
				sum += d
			}
		}
		return sum
	}
	gensDone := make(chan struct{})
	go func() {
		defer close(gensDone)
		wg.Wait()
	}()
	prevAt, prevDone, prevCPU := start, 0, childCPU()
cutting:
	for i := 1; i <= timedSegments; i++ {
		select {
		case <-time.After(time.Until(start.Add(time.Duration(i) * segLen))):
		case <-gensDone:
			break cutting // the stream's cap was reached; a partly fed segment is not a sample
		case <-worker.exited:
			return nil, worker.died()
		case <-broker.exited:
			return nil, broker.died()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		wc, err := fetchCounters(httpc, base)
		if err != nil {
			return nil, fmt.Errorf("read worker counters: %w", err)
		}
		at, cpu := time.Now(), childCPU()
		out.segments = append(out.segments, segment{
			lines: wc.processed - prevDone,
			wall:  at.Sub(prevAt),
			cpu:   cpu - prevCPU,
		})
		prevAt, prevDone, prevCPU = at, wc.processed, cpu
	}
	<-gensDone
	if len(out.segments) == 0 {
		// The stream ended inside the first segment (a smoke pass): the
		// partial segment is the only sample there is.
		if wc, err := fetchCounters(httpc, base); err == nil {
			at := time.Now()
			out.segments = append(out.segments, segment{
				lines: wc.processed,
				wall:  at.Sub(start),
				cpu:   childCPU() - prevCPU,
			})
		}
	}
	for _, err := range genErr {
		if err != nil {
			return nil, fmt.Errorf("cluster generator: %w", err)
		}
	}
	var queryFailures int
	out.queriesMs, queryFailures = stopQueries()
	total := int(totalSent.Load())
	out.attempted = total + probes.sentCount() + len(out.queriesMs) + queryFailures
	out.fail(queryFailures, "anomaly queries that did not return 200")

	// The reference over exactly the prefix that was sent, then the
	// final heartbeats, then wait for the worker to have reported it all.
	want := reference(pl.model, pl.stream, sent, true)
	if want.unparsed != probes.sentCount() {
		// Probes are matched to the worker's unparsed-log lines in FIFO
		// order, which holds only while nothing else is unparsed.
		return nil, fmt.Errorf("reference leaves %d lines unparsed, want exactly the %d probes", want.unparsed, probes.sentCount())
	}
	if err := sendHeartbeats(ctx, busAddr, pl); err != nil {
		return nil, err
	}
	limit := time.Now().Add(drainDeadline)
	var wc workerCounters
	for {
		wc, err = fetchCounters(httpc, base)
		if err != nil {
			return nil, fmt.Errorf("read worker counters: %w", err)
		}
		if wc.lines >= total && wc.processed >= total && wc.anomalies >= want.anomalyCount() {
			break
		}
		if time.Now().After(limit) {
			break
		}
		select {
		case <-worker.exited:
			return nil, worker.died()
		case <-time.After(pollEvery):
		}
	}
	out.fail(total-wc.processed, "lines without a verdict after %v", drainDeadline)
	if wc.processed != want.parsed+want.unparsed {
		out.fail(1, "worker counted %d verdicts, reference %d", wc.processed, want.parsed+want.unparsed)
	}
	for _, pid := range pids {
		if mb, err := peakRSSMB(strconv.Itoa(pid)); err == nil && mb > out.peakRSSMB {
			out.peakRSSMB = mb
		}
	}

	// Orderly end: the stream closes, the worker drains and prints its
	// last verdicts, then both children are told to stop.
	close(stopPoll)
	pollWG.Wait()
	out.extra["logmanager.lag_p95_lines"] = quantileOrZero(inflightSamples, 0.95)
	stdinW.Close()
	worker.stop()
	<-stdoutDone
	broker.stop()

	verdicts.mu.Lock()
	// The worker adds a final heartbeat for its own idle stdin source;
	// it holds no events, so it adds no verdicts.
	diff, examples := diffVerdicts(verdicts.got, want.anomalies)
	verdicts.mu.Unlock()
	out.fail(diff, "anomaly multiset differs from the reference: %v", examples)
	out.latenciesMs = probes.latencies()
	out.fail(probes.lost(), "probes without a verdict")
	out.fail(probes.stray, "probe verdicts that match no sent probe")
	return out, nil
}

// publishCluster is generator g of n: one netbus connection, its sources
// interleaved line by line, paused whenever its spool or the global
// in-flight window is full, until the deadline or the end of the stream.
func publishCluster(ctx context.Context, busAddr string, pl *plan, g, n int, deadline time.Time, probes *probeBook, sent []int, totalSent, processed *atomic.Int64) error {
	client := netbus.Dial(busAddr, netbus.Options{Role: "agent"})
	defer client.Close()
	cctx, cancel := context.WithTimeout(ctx, readyTimeout)
	err := client.WaitConnected(cctx)
	cancel()
	if err != nil {
		return fmt.Errorf("connect to broker: %w", err)
	}
	spool, err := netbus.OpenSpool(netbus.SpoolOptions{})
	if err != nil {
		return err
	}
	pub := netbus.NewPublisher(client, agent.LogsTopic, spool)
	defer pub.Close()
	mine := sourcesOf(g, n)
	mySent := uint64(0)
	perSource := len(pl.stream.lines[0])
	for k := 0; k < perSource; k++ {
		for _, s := range mine {
			for mySent-pub.Acked() > spoolDepth || totalSent.Load()-processed.Load() > inflightWindow {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				time.Sleep(200 * time.Microsecond)
			}
			now := time.Now()
			if now.After(deadline) {
				k = perSource // leave both loops; sources stay within one line of each other
				break
			}
			if pl.stream.isProbe(k) {
				probes.sent(pl.stream.probeSerial(s, k), now)
			}
			if err := pub.Send(pl.stream.sources[s], uint64(k+1), pl.stream.lines[s][k]); err != nil {
				return err
			}
			sent[s] = k + 1
			mySent++
			totalSent.Add(1)
		}
	}
	dctx, dcancel := context.WithTimeout(ctx, drainDeadline)
	defer dcancel()
	if err := pub.Drain(dctx); err != nil {
		return fmt.Errorf("drain spool: %w", err)
	}
	if shed := spool.Shed(); shed > 0 {
		return fmt.Errorf("spool shed %d lines", shed)
	}
	return nil
}

// sendHeartbeats publishes the one final heartbeat per source.
func sendHeartbeats(ctx context.Context, busAddr string, pl *plan) error {
	client := netbus.Dial(busAddr, netbus.Options{Role: "agent"})
	defer client.Close()
	spool, err := netbus.OpenSpool(netbus.SpoolOptions{})
	if err != nil {
		return err
	}
	pub := netbus.NewPublisher(client, agent.LogsTopic, spool)
	defer pub.Close()
	hb := finalHeartbeat(pl.stream)
	for _, src := range pl.stream.sources {
		if err := pub.SendHeartbeat(src, hb); err != nil {
			return err
		}
	}
	dctx, cancel := context.WithTimeout(ctx, drainDeadline)
	defer cancel()
	return pub.Drain(dctx)
}
