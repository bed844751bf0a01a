package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/experiments"
	"loglens/internal/netbus"
)

// TestRemoteAgentOverTCP ships logs through a netbus Publisher to a
// netbus server over the pipeline's own bus — the §II deployment shape
// with agents on other machines.
func TestRemoteAgentOverTCP(t *testing.T) {
	p, err := New(Config{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	var train []string
	for i := 0; i < 100; i++ {
		t0 := msBase.Add(time.Duration(i*10) * time.Second)
		id := fmt.Sprintf("jb-%04d", i)
		train = append(train,
			fmt.Sprintf("%s job %s queued prio %d", msStamp(t0), id, i%4),
			fmt.Sprintf("%s job %s finished rc %d", msStamp(t0.Add(2*time.Second)), id, i%2),
		)
	}
	if _, _, err := p.Train("m", experiments.ToLogs("remote", train)); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// The netbus server that `loglens -listen` runs over the pipeline's
	// own bus.
	srv := netbus.NewServer(p.Bus())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := netbus.Dial(addr, netbus.Options{Role: "agent"})
	spool, err := netbus.OpenSpool(netbus.SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pub := netbus.NewPublisher(client, agent.LogsTopic, spool)

	tt := msBase.Add(time.Hour)
	// A normal remote trace plus a missing-begin trace.
	lines := []string{
		fmt.Sprintf("%s job jb-9000 queued prio 1", msStamp(tt)),
		fmt.Sprintf("%s job jb-9000 finished rc 0", msStamp(tt.Add(2*time.Second))),
		fmt.Sprintf("%s job jb-9001 finished rc 0", msStamp(tt.Add(3*time.Second))),
	}
	for i, line := range lines {
		if err := pub.Send("remote", uint64(i+1), line); err != nil {
			t.Fatal(err)
		}
	}
	// A remote heartbeat, too.
	if err := pub.SendHeartbeat("remote", tt.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	// Every acked publish is on the bus; then the pipeline drains it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pub.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	pub.Close()
	client.Close()
	srv.Close()
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := p.AnomalyCount(); got != 1 {
		t.Fatalf("anomalies = %d, want 1 (the remote missing-begin trace)", got)
	}
	if p.UnparsedCount() != 0 {
		t.Errorf("unparsed = %d", p.UnparsedCount())
	}
}
