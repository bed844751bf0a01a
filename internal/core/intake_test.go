package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/intake"
	"loglens/internal/obs"
	"loglens/internal/testutil"
)

// syslogFrame wraps a corpus line in a well-formed RFC 3164 envelope so
// the intake listener attributes it to tenant "web01" and forwards the
// corpus line as the message body.
func syslogFrame(line string) string {
	return "<13>Feb  5 17:32:18 web01 app: " + line
}

// TestConservationNetworkPath extends the lines-conservation invariant
// across the network boundary: every line accepted by the intake
// listeners is exactly one of parsed, unparsed, quarantined, or shed —
// with the sheds accounted in intake_lines_shed_total and the flight
// recorder. The intake admission runs on its own fake clock (tokens
// never refill), so the shed split is exact while the pipeline's
// micro-batches run on the wall clock.
func TestConservationNetworkPath(t *testing.T) {
	const nParsed, nUnparsed = 6, 4
	const burst = nParsed + nUnparsed // TCP sends exactly the burst
	const nShed = 8                   // UDP datagrams past the empty bucket
	training, prod := conservationCorpus(nParsed, nUnparsed)

	intakeClk := clock.NewFake()
	ops := obs.New(clock.New())
	p, err := New(Config{
		DisableHeartbeat: true,
		Ops:              ops,
		Intake: intake.Config{
			SyslogTCP:   "127.0.0.1:0",
			SyslogUDP:   "127.0.0.1:0",
			TenantRate:  1, // refill is irrelevant: the fake clock never moves
			TenantBurst: burst,
			Clock:       intakeClk,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Train("net-conservation", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	svc := p.Intake()
	if svc == nil {
		t.Fatal("intake service not running")
	}

	// The burst flows in over TCP: 6 lines the model parses, 4 it
	// cannot.
	conn, err := net.Dial("tcp", svc.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, line := range prod {
		fmt.Fprintf(&buf, "%s\n", syslogFrame(line))
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return svc.Stats().Published == burst
	}, "TCP lines not published to the bus")

	// The bucket is now empty and the fake clock never refills it: every
	// UDP datagram sheds with reason "rate".
	udp, err := net.Dial("udp", svc.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	for i := 0; i < nShed; i++ {
		fmt.Fprintf(udp, "%s", syslogFrame(fmt.Sprintf("flood line %d", i)))
		want := uint64(burst + i + 1)
		testutil.WaitUntil(t, 10*time.Second, func() bool {
			return svc.Stats().Accepted == want
		}, "datagram not accounted")
	}

	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}

	snap := p.Metrics().Snapshot()
	accepted := snap.Counter("intake_lines_accepted_total")
	shed := snap.CounterSum("intake_lines_shed_total")
	parsed := snap.Counter("core_parsed_total")
	unparsed := snap.Counter("core_unparsed_total")
	quarantined := p.QuarantinedCount()

	if accepted != burst+nShed {
		t.Fatalf("intake_lines_accepted_total = %d, want %d", accepted, burst+nShed)
	}
	if shed != nShed {
		t.Errorf("intake_lines_shed_total = %d, want %d", shed, nShed)
	}
	if got := snap.Counter("intake_lines_shed_total", "reason", intake.ShedRate); got != nShed {
		t.Errorf("shed{reason=rate} = %d, want %d", got, nShed)
	}
	if parsed != nParsed || unparsed != nUnparsed {
		t.Errorf("parsed/unparsed = %d/%d, want %d/%d", parsed, unparsed, nParsed, nUnparsed)
	}
	// The network-path conservation invariant.
	if accepted != parsed+unparsed+quarantined+shed {
		t.Errorf("conservation broken: accepted %d != parsed %d + unparsed %d + quarantined %d + shed %d",
			accepted, parsed, unparsed, quarantined, shed)
	}
	// Every shed line landed in the flight recorder with its reason.
	evs := ops.Events.Events(obs.EventQuery{Type: obs.EventIntakeShed})
	var recorded int64
	for _, ev := range evs {
		if ev.Detail != intake.ShedRate || ev.Source != "web01" {
			t.Errorf("shed event = %+v, want tenant web01 reason rate", ev)
		}
		recorded += ev.Value
	}
	if recorded != nShed {
		t.Errorf("flight recorder shed lines = %d, want %d", recorded, nShed)
	}
	// The intake layer's own balance also closes.
	st := svc.Stats()
	if st.Accepted != st.Published+st.Shed {
		t.Errorf("intake balance broken: %+v", st)
	}
}

// TestGracefulShutdownDuringIngest is the kill-during-ingest e2e for the
// shutdown-ordering fix: lines acked over HTTP while traffic is still in
// flight must survive an orderly shutdown + final checkpoint + restart.
// The drain order (intake first, then the pipeline, then the checkpoint)
// is exactly what cmd/loglens runs on SIGTERM.
func TestGracefulShutdownDuringIngest(t *testing.T) {
	const tcpLines = 150
	dir := t.TempDir()
	training, _ := conservationCorpus(0, 0)

	p := newRecoveryPipeline(t, dir, func(cfg *Config) {
		cfg.Intake = intake.Config{
			SyslogTCP: "127.0.0.1:0",
			HTTP:      "127.0.0.1:0",
		}
	})
	if _, _, err := p.Train("shutdown-ingest", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	svc := p.Intake()

	// TCP traffic: written in full, no application-level ack.
	conn, err := net.Dial("tcp", svc.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < tcpLines; i++ {
		fmt.Fprintf(&buf, "%s\n", syslogFrame(fmt.Sprintf("stream line %d", i)))
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// HTTP traffic: each 200 response acks its batch. Acked lines are
	// the ones shutdown must not lose.
	var acked uint64
	for b := 0; b < 5; b++ {
		req := intake.IngestRequest{Tenant: "api"}
		for i := 0; i < 30; i++ {
			req.Lines = append(req.Lines, fmt.Sprintf("bulk line %d-%d", b, i))
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post("http://"+svc.HTTPAddr()+"/api/ingest", "application/json",
			bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ir intake.IngestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", b, resp.StatusCode)
		}
		acked += uint64(ir.Accepted)
	}

	// Orderly shutdown while traffic may still sit in the intake queue —
	// the cmd/loglens SIGTERM order: intake drains into the bus, the
	// pipeline drains into the engines, the final checkpoint seals it.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	st := svc.Stats()
	if st.Accepted != st.Published+st.Shed {
		t.Fatalf("intake balance broken at shutdown: %+v", st)
	}
	if st.Published < acked {
		t.Fatalf("published %d < acked %d: acked lines died in the intake queue", st.Published, acked)
	}
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	published := st.Published
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}

	// Restart: the restored counters must account every published line —
	// in particular every acked one.
	p2 := newRecoveryPipeline(t, dir, nil)
	restored, err := p2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("no checkpoint found after shutdown")
	}
	snap := p2.Metrics().Snapshot()
	lines := snap.Counter("core_lines_total")
	parsed := snap.Counter("core_parsed_total")
	unparsed := snap.Counter("core_unparsed_total")
	if lines != published {
		t.Errorf("restored core_lines_total = %d, want %d published", lines, published)
	}
	if lines < acked {
		t.Errorf("restored lines %d < acked %d: acked lines lost across restart", lines, acked)
	}
	if parsed+unparsed+p2.QuarantinedCount() != lines {
		t.Errorf("restored conservation broken: parsed %d + unparsed %d + quarantined %d != lines %d",
			parsed, unparsed, p2.QuarantinedCount(), lines)
	}
}

// TestIntakeRestartAcrossStopStart: a pipeline stop/start cycle (the
// restore path) must bring up fresh intake listeners, not fail on the
// drained ones.
func TestIntakeRestartAcrossStopStart(t *testing.T) {
	training, _ := conservationCorpus(0, 0)
	p, err := New(Config{
		DisableHeartbeat: true,
		Intake:           intake.Config{SyslogTCP: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Train("restart", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	first := p.Intake().TCPAddr()
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("second Start: %v", err)
	}
	defer p.Stop()
	svc := p.Intake()
	if svc.TCPAddr() == "" || svc.TCPAddr() == first {
		t.Fatalf("second run listener = %q (first %q), want a fresh listener", svc.TCPAddr(), first)
	}
	conn, err := net.Dial("tcp", svc.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s\n", syslogFrame("after restart"))
	conn.Close()
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return svc.Stats().Published == 1
	}, "line not published after restart")
}
