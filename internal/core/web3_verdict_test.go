package core

import (
	"fmt"
	"testing"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/clock"
	"loglens/internal/logtypes"
	"loglens/internal/testutil"
)

// TestWeb3MissingBeginVerdict follows ONE line — web#3, the "req-901
// served" line of the quickstart corpus, a request served without ever
// being received — through the pipeline: it must yield exactly one
// anomaly, a missing-begin-state for event req-901, and nothing else may
// cite it.
func TestWeb3MissingBeginVerdict(t *testing.T) {
	// Quickstart training corpus: 200 request pairs.
	var training []logtypes.Log
	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("req-%03d", i)
		t0 := base.Add(time.Duration(i*5) * time.Second)
		training = append(training,
			logtypes.Log{Source: "web", Seq: uint64(2*i + 1), Raw: fmt.Sprintf(
				"%s 10.0.0.%d request %s received path /api/items/%d",
				t0.Format("2006/01/02 15:04:05.000"), i%5+1, id, i%40)},
			logtypes.Log{Source: "web", Seq: uint64(2*i + 2), Raw: fmt.Sprintf(
				"%s 10.0.0.%d request %s served bytes %d",
				t0.Add(time.Duration(1+i%2)*time.Second).Format("2006/01/02 15:04:05.000"), i%5+1, id, 512+i)},
		)
	}

	fc := clock.NewFake()
	p, err := New(Config{Clock: fc, DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	// Collect every anomaly citing web#3. The sink runs under the
	// engine barrier; Stop below orders these writes before the read.
	var web3 []anomaly.Record
	p.OnAnomaly(func(r anomaly.Record) {
		for _, l := range r.Logs {
			if l.Source == "web" && l.Seq == 3 {
				web3 = append(web3, r)
				return
			}
		}
	})
	if _, _, err := p.Train("quickstart", training); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag, err := p.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	prod := base.Add(time.Hour)
	stamp := func(d time.Duration) string { return prod.Add(d).Format("2006/01/02 15:04:05.000") }
	lines := []string{
		stamp(0) + " 10.0.0.1 request req-900 received path /api/items/7",
		stamp(time.Second) + " 10.0.0.1 request req-900 served bytes 600",
		stamp(2*time.Second) + " 10.0.0.2 request req-901 served bytes 999", // web#3: missing begin
		"segfault at 0x0 in worker thread",
	}
	for _, line := range lines {
		if err := ag.Send(line); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.logmgr.Received() == uint64(len(lines))
	}, "log manager did not forward every line")
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}

	if len(web3) != 1 {
		t.Fatalf("web#3 cited by %d anomalies, want 1: %+v", len(web3), web3)
	}
	if r := web3[0]; r.Type != anomaly.MissingBegin || r.EventID != "req-901" {
		t.Fatalf("web#3 verdict = %s for event %q, want %s for req-901", r.Type, r.EventID, anomaly.MissingBegin)
	}
}
