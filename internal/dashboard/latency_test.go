package dashboard

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/core"
	"loglens/internal/obs"
)

// latencyGet fetches /api/latency and decodes the response body.
func latencyGet(t *testing.T, srv *Server) (int, map[string]any) {
	t.Helper()
	return get(t, srv, "/api/latency")
}

// TestLatencyEndpoint drives the tracker directly and checks the
// /api/latency payload: SLO accounting, the stage table with
// interpolated percentiles, and the partition/tenant watermark tables
// with lag ages measured against the fake clock.
func TestLatencyEndpoint(t *testing.T) {
	fc := clock.NewFake()
	base := fc.Now()
	p, err := core.New(core.Config{
		Clock:            fc,
		DisableHeartbeat: true,
		Partitions:       2,
		SLOE2E:           50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p)
	srv.SetClock(fc)

	lat := p.Latency()
	if lat == nil {
		t.Fatal("latency tracker not enabled by default")
	}
	// 4 parse observations at 10ms: all land in the (0.005, 0.01]
	// StageBuckets bucket, so every quantile interpolates inside it.
	for i := 0; i < 4; i++ {
		lat.Observe(obs.StageParse, 10*time.Millisecond)
	}
	lat.CheckSLO(60 * time.Millisecond) // breach
	lat.CheckSLO(40 * time.Millisecond) // within SLO
	lat.NoteIngest(base)
	lat.Partition(0).Note(base.UnixNano(), base.UnixNano())
	lat.Tenant("alpha").Note(base.UnixNano(), base.UnixNano())
	fc.Advance(25 * time.Millisecond)

	code, body := latencyGet(t, srv)
	if code != 200 || body["enabled"] != true {
		t.Fatalf("latency = %d %v, want 200 enabled", code, body["enabled"])
	}
	slo := body["slo"].(map[string]any)
	if slo["e2eMs"].(float64) != 50 || slo["breachTotal"].(float64) != 1 {
		t.Fatalf("slo = %v, want e2eMs 50 breachTotal 1", slo)
	}
	if body["ingestWatermark"] == nil {
		t.Fatalf("ingestWatermark missing after NoteIngest")
	}

	stages := body["stages"].([]any)
	want := append(obs.Stages(), "e2e")
	if len(stages) != len(want) {
		t.Fatalf("got %d stage rows, want %d", len(stages), len(want))
	}
	var parse map[string]any
	for i, raw := range stages {
		row := raw.(map[string]any)
		if row["stage"] != want[i] {
			t.Fatalf("stages[%d] = %v, want %s", i, row["stage"], want[i])
		}
		if row["stage"] == "parse" {
			parse = row
		}
	}
	if parse["count"].(float64) != 4 {
		t.Fatalf("parse count = %v, want 4", parse["count"])
	}
	// All 4 observations sit in one bucket: p50 interpolates halfway
	// through it, p95 at 95% of it.
	bounds := obs.StageBuckets
	var lo, hi float64
	for i, b := range bounds {
		if b >= 0.01 {
			hi = b
			if i > 0 {
				lo = bounds[i-1]
			}
			break
		}
	}
	wantP50 := (lo + (hi-lo)*0.5) * 1000
	if got := parse["p50Ms"].(float64); math.Abs(got-wantP50) > 1e-9 {
		t.Fatalf("parse p50Ms = %v, want %v", got, wantP50)
	}
	wantP95 := (lo + (hi-lo)*0.95) * 1000
	if got := parse["p95Ms"].(float64); math.Abs(got-wantP95) > 1e-9 {
		t.Fatalf("parse p95Ms = %v, want %v", got, wantP95)
	}

	// Empty stages report zero percentiles, not NaN (JSON-encodable).
	intake := stages[0].(map[string]any)
	if intake["count"].(float64) != 0 || intake["p99Ms"].(float64) != 0 {
		t.Fatalf("empty intake row = %v, want zeros", intake)
	}

	parts := body["partitions"].([]any)
	if len(parts) != 2 {
		t.Fatalf("got %d partitions, want 2", len(parts))
	}
	p0 := parts[0].(map[string]any)
	if p0["partition"].(float64) != 0 || p0["eventLagMs"].(float64) != 25 {
		t.Fatalf("partition 0 = %v, want eventLagMs 25", p0)
	}
	p1 := parts[1].(map[string]any)
	if p1["eventLagMs"].(float64) != -1 {
		t.Fatalf("idle partition 1 = %v, want eventLagMs -1", p1)
	}
	tenants := body["tenants"].([]any)
	if len(tenants) != 1 {
		t.Fatalf("got %d tenants, want 1", len(tenants))
	}
	al := tenants[0].(map[string]any)
	if al["tenant"] != "alpha" || al["procLagMs"].(float64) != 25 {
		t.Fatalf("tenant row = %v, want alpha procLagMs 25", al)
	}
}

// TestMetricsPrometheusFormat: ?format=prometheus serves the text
// exposition — TYPE headers, cumulative buckets ending at +Inf, and
// _sum/_count series.
func TestMetricsPrometheusFormat(t *testing.T) {
	p, err := core.New(core.Config{DisableHeartbeat: true, SLOE2E: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p.Latency().Observe(obs.StageParse, 10*time.Millisecond)
	p.Latency().CheckSLO(5 * time.Millisecond)
	srv := New(p)

	req := httptest.NewRequest("GET", "/api/metrics?format=prometheus", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE latency_stage_seconds histogram",
		"# TYPE latency_slo_breach_total counter",
		"latency_slo_breach_total 1",
		`latency_stage_seconds_bucket{stage="parse",le="+Inf"} 1`,
		`latency_stage_seconds_count{stage="parse"} 1`,
		`latency_stage_seconds_sum{stage="parse"} 0.01`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Buckets must be cumulative and in bound order: the +Inf bucket is
	// the last parse bucket line.
	lines := strings.Split(out, "\n")
	var parseBuckets []string
	for _, l := range lines {
		if strings.HasPrefix(l, `latency_stage_seconds_bucket{stage="parse"`) {
			parseBuckets = append(parseBuckets, l)
		}
	}
	if len(parseBuckets) != len(obs.StageBuckets)+1 {
		t.Fatalf("got %d parse bucket lines, want %d", len(parseBuckets), len(obs.StageBuckets)+1)
	}
	if last := parseBuckets[len(parseBuckets)-1]; !strings.Contains(last, `le="+Inf"`) {
		t.Errorf("last bucket line = %q, want +Inf", last)
	}
}
