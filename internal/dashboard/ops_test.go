package dashboard

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/chaos"
	"loglens/internal/clock"
	"loglens/internal/core"
	"loglens/internal/experiments"
	"loglens/internal/heartbeat"
	"loglens/internal/obs"
	"loglens/internal/testutil"
)

// probeOf extracts one probe's status and detail from a health body.
func probeOf(t *testing.T, body map[string]any, name string) (string, string) {
	t.Helper()
	probes, ok := body["probes"].(map[string]any)
	if !ok {
		t.Fatalf("health body has no probes: %v", body)
	}
	p, ok := probes[name].(map[string]any)
	if !ok {
		t.Fatalf("health body has no probe %q: %v", name, probes)
	}
	status, _ := p["status"].(string)
	detail, _ := p["detail"].(string)
	return status, detail
}

// trainedOpsPipeline builds an un-started fake-clock pipeline with the ops
// plane enabled, a trained model, and an agent (declaring the logs topic
// so a chaos producer can pile up a backlog before Start).
func trainedOpsPipeline(t *testing.T, fc *clock.Fake, cfg core.Config) (*core.Pipeline, *agent.Agent) {
	t.Helper()
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	var train []string
	for i := 0; i < 50; i++ {
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
	ag, err := p.Agent("tasks", 0)
	if err != nil {
		t.Fatal(err)
	}
	return p, ag
}

// TestHealthzFlipsUnderChaos drives /healthz and /readyz through their
// golden states on a fake clock: degraded before start, unhealthy under a
// seeded chaos backlog, healthy once the pipeline drains it, degraded
// again when the tracked source goes stale, and healthy after the
// activity-window sweep forgets the source. Every flip is deterministic:
// the backlog is seeded, and staleness moves only when the test advances
// the clock.
func TestHealthzFlipsUnderChaos(t *testing.T) {
	fc := clock.NewFake()
	ops := obs.New(fc)
	p, ag := trainedOpsPipeline(t, fc, core.Config{
		Clock:           fc,
		Ops:             ops,
		BusLagDegraded:  8,
		BusLagUnhealthy: 32,
		HeartbeatStale:  2 * time.Minute,
		Heartbeat:       heartbeat.Config{Interval: time.Second, ActivityWindow: 4 * time.Minute},
	})
	srv := New(p)
	srv.SetClock(fc)

	// Golden state 1: fresh and un-started — alive but not ready.
	code, body := get(t, srv, "/healthz")
	if code != 200 || body["status"] != "degraded" {
		t.Fatalf("fresh healthz = %d %v, want 200 degraded", code, body["status"])
	}
	if st, detail := probeOf(t, body, "pipeline"); st != "degraded" || !strings.Contains(detail, "not started") {
		t.Fatalf("pipeline probe = %s %q", st, detail)
	}
	for _, name := range []string{"bus", "heartbeat", "broadcast"} {
		if st, detail := probeOf(t, body, name); st != "healthy" {
			t.Fatalf("%s probe = %s %q, want healthy", name, st, detail)
		}
	}
	if code, _ := get(t, srv, "/readyz"); code != 503 {
		t.Fatalf("fresh readyz = %d, want 503", code)
	}

	// Golden state 2: seeded chaos piles a backlog past the degraded
	// threshold while nothing consumes.
	cp := chaos.NewProducer(p.Bus(), agent.LogsTopic, fc, chaos.Config{
		Seed:          42,
		Drop:          0.2,
		Duplicate:     0.1,
		ReorderWindow: 4,
	})
	junk := func(from, n int) {
		for i := from; i < from+n; i++ {
			err := cp.Publish("tasks", []byte("garbage line "+strconv.Itoa(i)), map[string]string{
				agent.HeaderSource: "tasks",
				agent.HeaderSeq:    strconv.Itoa(i + 1),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := cp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	junk(0, 20)
	if st := cp.Stats(); st.Delivered < 8 || st.Delivered >= 32 {
		t.Fatalf("seed delivered %d messages, want in [8,32) — adjust burst", st.Delivered)
	}
	code, body = get(t, srv, "/healthz")
	if code != 200 || body["status"] != "degraded" {
		t.Fatalf("backlogged healthz = %d %v, want 200 degraded", code, body["status"])
	}
	if st, detail := probeOf(t, body, "bus"); st != "degraded" || !strings.Contains(detail, "lag") {
		t.Fatalf("bus probe = %s %q, want degraded with lag detail", st, detail)
	}

	// Golden state 3: the backlog crosses the unhealthy threshold and
	// liveness itself fails.
	junk(20, 40)
	if st := cp.Stats(); st.Delivered < 32 {
		t.Fatalf("seed delivered %d messages total, want >= 32 — adjust burst", st.Delivered)
	}
	code, body = get(t, srv, "/healthz")
	if code != 503 || body["status"] != "unhealthy" {
		t.Fatalf("overloaded healthz = %d %v, want 503 unhealthy", code, body["status"])
	}
	if st, _ := probeOf(t, body, "bus"); st != "unhealthy" {
		t.Fatalf("bus probe = %s, want unhealthy", st)
	}

	// Golden state 4: start the pipeline. The pump drains the backlog
	// and one parseable line marks the source active; advancing the fake
	// clock closes micro-batches so the operator runs.
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	base := time.Date(2016, 2, 23, 10, 0, 0, 0, time.UTC)
	if err := ag.Send(base.Format("2006/01/02 15:04:05.000") + " task live-1 start prio 1"); err != nil {
		t.Fatal(err)
	}
	if err := ag.Send(base.Add(time.Second).Format("2006/01/02 15:04:05.000") + " task live-1 done code 0"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		fc.Advance(20 * time.Millisecond)
		_, body := get(t, srv, "/healthz")
		_, hbDetail := probeOf(t, body, "heartbeat")
		return body["status"] == "healthy" && strings.Contains(hbDetail, "1 tracked")
	}, "pipeline did not become healthy after start")
	if code, _ := get(t, srv, "/readyz"); code != 200 {
		t.Fatalf("running readyz = %d, want 200", code)
	}

	// Golden state 5: past the staleness threshold the tracked source
	// has been silent too long. The probe reads staleness directly, so
	// one clock advance flips it.
	fc.Advance(2*time.Minute + time.Second)
	code, body = get(t, srv, "/healthz")
	if code != 200 || body["status"] != "degraded" {
		t.Fatalf("stale healthz = %d %v, want 200 degraded", code, body["status"])
	}
	if st, detail := probeOf(t, body, "heartbeat"); st != "degraded" || !strings.Contains(detail, "silent") {
		t.Fatalf("heartbeat probe = %s %q, want degraded/silent", st, detail)
	}

	// Golden state 6: past the activity window the sweep forgets the
	// source and the probe recovers. The sweep runs on the controller's
	// ticker, so keep advancing until it fires.
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		fc.Advance(time.Minute)
		_, body := get(t, srv, "/healthz")
		return body["status"] == "healthy"
	}, "heartbeat probe did not recover after the source was forgotten")
	code, body = get(t, srv, "/healthz")
	if st, detail := probeOf(t, body, "heartbeat"); st != "healthy" || !strings.Contains(detail, "0 tracked") {
		t.Fatalf("recovered heartbeat probe = %s %q, want healthy with 0 tracked", st, detail)
	}
}

func TestEventsEndpointFiltering(t *testing.T) {
	fc := clock.NewFake()
	ops := obs.New(fc)
	p, err := core.New(core.Config{Clock: fc, Ops: ops, DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p)
	srv.SetClock(fc)

	ops.Events.Record(obs.EventAnomaly, "web", "missing-end", 1)
	fc.Advance(time.Minute)
	cut := fc.Now()
	ops.Events.Record(obs.EventHeartbeatExpiry, "db", "event e1 expired", 7)
	fc.Advance(time.Minute)
	ops.Events.Record(obs.EventAnomaly, "web", "missing-begin", 1)

	code, body := get(t, srv, "/api/events")
	if code != 200 || body["total"].(float64) != 3 {
		t.Fatalf("all events = %d %v, want 200 total 3", code, body["total"])
	}
	// Newest first.
	first := body["events"].([]any)[0].(map[string]any)
	if first["detail"] != "missing-begin" {
		t.Errorf("events[0].detail = %v, want missing-begin (newest first)", first["detail"])
	}

	code, body = get(t, srv, "/api/events?type=heartbeat-expiry")
	if code != 200 || body["total"].(float64) != 1 {
		t.Fatalf("type filter = %d %v, want 1", code, body["total"])
	}
	ev := body["events"].([]any)[0].(map[string]any)
	if ev["source"] != "db" || ev["value"].(float64) != 7 {
		t.Errorf("filtered event = %v", ev)
	}

	code, body = get(t, srv, "/api/events?since="+cut.Format(time.RFC3339))
	if code != 200 || body["total"].(float64) != 2 {
		t.Fatalf("since filter = %d %v, want 2", code, body["total"])
	}

	code, body = get(t, srv, "/api/events?limit=1")
	if code != 200 || body["total"].(float64) != 1 {
		t.Fatalf("limit = %d %v, want 1", code, body["total"])
	}

	if code, _ := get(t, srv, "/api/events?since=yesterday"); code != 400 {
		t.Errorf("bad since = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/api/events?limit=-1"); code != 400 {
		t.Errorf("bad limit = %d, want 400", code)
	}
}

func TestTraceEndpointChromeJSON(t *testing.T) {
	fc := clock.NewFake()
	ops := obs.New(fc)
	p, err := core.New(core.Config{Clock: fc, Ops: ops, DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p)
	srv.SetClock(fc)

	tid := ops.Spans.Thread("worker-1")
	old := ops.Spans.Start("stage", "old-span", tid)
	fc.Advance(5 * time.Millisecond)
	old.End()
	fc.Advance(2 * time.Minute) // push old-span out of the 60s window
	sp := ops.Spans.Start("stage", "parse", tid)
	fc.Advance(3 * time.Millisecond)
	sp.End()

	code, body := get(t, srv, "/debug/trace?sec=60")
	if code != 200 {
		t.Fatalf("trace status %d", code)
	}
	events, ok := body["traceEvents"].([]any)
	if !ok {
		t.Fatalf("trace body is not Chrome trace JSON: %v", body)
	}
	var sawThread, sawSpan, sawOld bool
	for _, raw := range events {
		ev := raw.(map[string]any)
		switch ev["ph"] {
		case "M":
			if ev["name"] != "thread_name" {
				t.Errorf("metadata event name = %v", ev["name"])
			}
			if args, ok := ev["args"].(map[string]any); ok && args["name"] == "worker-1" {
				sawThread = true
			}
		case "X":
			switch ev["name"] {
			case "parse":
				sawSpan = true
				if ev["dur"].(float64) != 3000 {
					t.Errorf("parse span dur = %v µs, want 3000", ev["dur"])
				}
				if ev["cat"] != "stage" || ev["pid"].(float64) != 1 {
					t.Errorf("parse span fields = %v", ev)
				}
			case "old-span":
				sawOld = true
			}
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if !sawThread || !sawSpan {
		t.Errorf("sawThread=%v sawSpan=%v, want both", sawThread, sawSpan)
	}
	if sawOld {
		t.Errorf("old-span leaked into the 60s window")
	}

	if code, _ := get(t, srv, "/debug/trace?sec=0"); code != 400 {
		t.Errorf("sec=0 status = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/debug/trace?sec=x"); code != 400 {
		t.Errorf("sec=x status = %d, want 400", code)
	}
}

// TestMetricsStreamSSE subscribes over a real HTTP connection and expects
// at least two data frames, each a full metrics snapshot.
func TestMetricsStreamSSE(t *testing.T) {
	p, err := core.New(core.Config{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/metrics/stream?interval=5ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	snapshots := 0
	for snapshots < 2 && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var snap map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
			t.Fatalf("bad snapshot JSON: %v", err)
		}
		if _, ok := snap["counters"]; !ok {
			t.Fatalf("snapshot missing counters: %v", snap)
		}
		snapshots++
	}
	if snapshots < 2 {
		t.Fatalf("got %d snapshots, want >= 2 (scan err %v)", snapshots, sc.Err())
	}
}

func TestMetricsStreamBadInterval(t *testing.T) {
	p, err := core.New(core.Config{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p)
	if code, _ := get(t, srv, "/api/metrics/stream?interval=abc"); code != 400 {
		t.Errorf("bad interval status = %d, want 400", code)
	}
}

// TestOpsEndpointsOnDefaultOpsPlane: with Config.Ops unset the pipeline
// runs its own ops plane, and every ops endpoint serves it: the probes,
// one flight-recorder event per anomaly, and the engine's batch spans.
func TestOpsEndpointsOnDefaultOpsPlane(t *testing.T) {
	srv := New(buildPipeline(t))

	code, body := get(t, srv, "/healthz")
	if code != 200 || body["status"] != "healthy" {
		t.Fatalf("healthz = %d %v, want 200 healthy", code, body["status"])
	}
	if status, _ := probeOf(t, body, "pipeline"); status != "healthy" {
		t.Fatalf("pipeline probe = %s, want healthy", status)
	}
	if code, _ := get(t, srv, "/readyz"); code != 200 {
		t.Fatalf("readyz = %d, want 200", code)
	}
	code, body = get(t, srv, "/api/events?type=anomaly")
	if code != 200 || body["total"].(float64) != 3 {
		t.Fatalf("anomaly events = %d %v, want 200 total 3", code, body["total"])
	}
	code, body = get(t, srv, "/debug/trace")
	if code != 200 {
		t.Fatalf("trace = %d, want 200", code)
	}
	if events, ok := body["traceEvents"].([]any); !ok || len(events) == 0 {
		t.Fatalf("trace body = %v, want the engine's spans", body)
	}

	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index = %d", rec.Code)
	}
}
