package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/experiments"
	"loglens/internal/heartbeat"
	"loglens/internal/obs"
	"loglens/internal/testutil"
)

// TestOpsProbesLifecycle drives the four registered health probes through
// their branches directly via Health.Check(), without going through the
// dashboard: degraded before Start, bus degraded/unhealthy as a backlog
// piles up, healthy once started and drained, heartbeat degraded once a
// tracked source goes stale.
func TestOpsProbesLifecycle(t *testing.T) {
	fc := clock.NewFake()
	ops := obs.New(fc)
	p, err := New(Config{
		Clock:           fc,
		Ops:             ops,
		BusLagDegraded:  4,
		BusLagUnhealthy: 16,
		HeartbeatStale:  2 * time.Minute,
		Heartbeat:       heartbeat.Config{Interval: time.Second, ActivityWindow: 4 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops() != ops {
		t.Fatal("Ops() does not return the configured bundle")
	}
	if p.Running() {
		t.Fatal("Running() true before Start")
	}

	// Un-started: the pipeline probe is degraded, everything else healthy.
	status, probes := ops.Health.Check()
	if status != obs.Degraded {
		t.Fatalf("un-started status = %v, probes %v", status, probes)
	}
	if pr := probes["pipeline"]; pr.Status != obs.Degraded || !strings.Contains(pr.Detail, "not started") {
		t.Fatalf("pipeline probe = %+v", pr)
	}
	for _, name := range []string{"bus", "heartbeat", "broadcast"} {
		if pr := probes[name]; pr.Status != obs.Healthy {
			t.Fatalf("%s probe = %+v, want healthy", name, pr)
		}
	}

	// Train so the logs topic and model broadcast exist; the driver holds
	// a version but no worker has pulled, which is not skew.
	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	var train []string
	for i := 0; i < 30; i++ {
		id := "ev-" + strconv.Itoa(i)
		t0 := base.Add(time.Duration(i*10) * time.Second)
		train = append(train,
			t0.Format("2006/01/02 15:04:05.000")+" task "+id+" start prio 1",
			t0.Add(2*time.Second).Format("2006/01/02 15:04:05.000")+" task "+id+" done code 0",
		)
	}
	if _, _, err := p.Train("m1", experiments.ToLogs("tasks", train)); err != nil {
		t.Fatal(err)
	}
	if _, pr := ops.Health.Check(); pr["broadcast"].Status != obs.Healthy {
		t.Fatalf("broadcast probe after train = %+v", pr["broadcast"])
	}

	// A backlog past the degraded threshold, then past unhealthy. The
	// log manager is not running yet, so nothing drains.
	ag, err := p.Agent("tasks", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ag.Send("junk line with no learned pattern")
	}
	if _, pr := ops.Health.Check(); pr["bus"].Status != obs.Degraded {
		t.Fatalf("bus probe at lag 8 = %+v", pr["bus"])
	}
	for i := 0; i < 16; i++ {
		ag.Send("junk line with no learned pattern")
	}
	status, probes = ops.Health.Check()
	if status != obs.Unhealthy || probes["bus"].Status != obs.Unhealthy {
		t.Fatalf("status at lag 24 = %v, bus probe %+v", status, probes["bus"])
	}

	// Start and drain the backlog; a parseable pair gets a source
	// tracked by the heartbeat controller.
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag.Send(base.Add(time.Hour).Format("2006/01/02 15:04:05.000") + " task ev-live start prio 1")
	ag.Send(base.Add(time.Hour+2*time.Second).Format("2006/01/02 15:04:05.000") + " task ev-live done code 0")
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		fc.Advance(20 * time.Millisecond)
		st, pr := ops.Health.Check()
		return st == obs.Healthy && strings.Contains(pr["heartbeat"].Detail, "1 tracked")
	}, "pipeline never became healthy after start")
	if !p.Running() {
		t.Fatal("Running() false while started")
	}

	// Silence past HeartbeatStale flips the heartbeat probe without any
	// sweep tick: the probe reads Staleness directly.
	fc.Advance(2*time.Minute + time.Second)
	if _, pr := ops.Health.Check(); pr["heartbeat"].Status != obs.Degraded ||
		!strings.Contains(pr["heartbeat"].Detail, "silent") {
		t.Fatalf("heartbeat probe after silence = %+v", pr["heartbeat"])
	}

	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if p.Running() {
		t.Fatal("Running() true after Stop")
	}
}

// TestOpsProbeHeartbeatDisabled: with the heartbeat controller off, its
// probe reports healthy-disabled rather than tracking nothing forever.
func TestOpsProbeHeartbeatDisabled(t *testing.T) {
	ops := obs.New(clock.NewFake())
	p, err := New(Config{Clock: clock.NewFake(), Ops: ops, DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	_, probes := ops.Health.Check()
	if pr := probes["heartbeat"]; pr.Status != obs.Healthy || !strings.Contains(pr.Detail, "disabled") {
		t.Fatalf("heartbeat probe = %+v", pr)
	}
	_ = p
}

// TestOpsPlaneOnByDefault: a pipeline built without Config.Ops runs a
// private ops plane: its probes are registered and the sink records a
// flight-recorder event per anomaly.
func TestOpsPlaneOnByDefault(t *testing.T) {
	fc := clock.NewFake()
	p, err := New(Config{Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Ops()
	if ops == nil || ops.Metrics != p.Metrics() {
		t.Fatalf("Ops() = %+v, want a bundle carrying Metrics()", ops)
	}
	_, probes := ops.Health.Check()
	for _, name := range []string{"pipeline", "bus", "heartbeat", "broadcast"} {
		if _, ok := probes[name]; !ok {
			t.Fatalf("probe %q not registered: %v", name, probes)
		}
	}

	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	var train []string
	for i := 0; i < 30; i++ {
		t0 := base.Add(time.Duration(i*10) * time.Second)
		id := "ev-" + strconv.Itoa(i)
		train = append(train,
			t0.Format("2006/01/02 15:04:05.000")+" task "+id+" start prio 1",
			t0.Add(2*time.Second).Format("2006/01/02 15:04:05.000")+" task "+id+" done code 0",
		)
	}
	if _, _, err := p.Train("m1", experiments.ToLogs("tasks", train)); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag, err := p.Agent("tasks", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.Send("junk line with no learned pattern"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		fc.Advance(20 * time.Millisecond)
		return p.AnomalyCount() == 1
	}, "unparsed line never reached the sink")
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	evs := ops.Events.Events(obs.EventQuery{Type: obs.EventAnomaly})
	if len(evs) != 1 || evs[0].Source != "tasks" || !strings.HasPrefix(evs[0].Detail, "unparsed-log") {
		t.Fatalf("anomaly events = %+v", evs)
	}
}
