package dashboard

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loglens/internal/core"
	"loglens/internal/experiments"
)

// buildPipeline trains and runs a small pipeline with a few anomalies.
func buildPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p, err := core.New(core.Config{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	var train []string
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("ev-%04d", i)
		t0 := base.Add(time.Duration(i*10) * time.Second)
		train = append(train,
			fmt.Sprintf("%s task %s start prio %d", t0.Format("2006/01/02 15:04:05.000"), id, i%5),
			fmt.Sprintf("%s task %s done code %d", t0.Add(2*time.Second).Format("2006/01/02 15:04:05.000"), id, i%3),
		)
	}
	if _, _, err := p.Train("m1", experiments.ToLogs("tasks", train)); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag, _ := p.Agent("tasks", 0)
	// Two missing-begin anomalies and one unparsed log.
	tt := base.Add(time.Hour)
	ag.Send(fmt.Sprintf("%s task bad-1 done code 1", tt.Format("2006/01/02 15:04:05.000")))
	ag.Send(fmt.Sprintf("%s task bad-2 done code 1", tt.Add(time.Minute).Format("2006/01/02 15:04:05.000")))
	ag.Send("garbage that matches nothing")
	if err := p.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop() })
	return p
}

func get(t *testing.T, srv *Server, path string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var body map[string]any
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return rec.Code, body
}

func TestAnomaliesEndpoint(t *testing.T) {
	srv := New(buildPipeline(t))
	code, body := get(t, srv, "/api/anomalies")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if body["total"].(float64) != 3 {
		t.Errorf("total = %v, want 3", body["total"])
	}
	// Filter by type.
	code, body = get(t, srv, "/api/anomalies?type=unparsed-log")
	if code != 200 || body["total"].(float64) != 1 {
		t.Errorf("unparsed filter: %d %v", code, body["total"])
	}
	// Limit.
	_, body = get(t, srv, "/api/anomalies?limit=1")
	if body["total"].(float64) != 1 {
		t.Errorf("limit: %v", body["total"])
	}
	// Bad input.
	code, _ = get(t, srv, "/api/anomalies?since=notatime")
	if code != 400 {
		t.Errorf("bad since: status %d", code)
	}
	code, _ = get(t, srv, "/api/anomalies?limit=x")
	if code != 400 {
		t.Errorf("bad limit: status %d", code)
	}
}

func TestHistogramEndpoint(t *testing.T) {
	srv := New(buildPipeline(t))
	code, body := get(t, srv, "/api/anomalies/histogram?interval=1m")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	buckets := body["buckets"].([]any)
	if len(buckets) == 0 {
		t.Error("no buckets")
	}
	code, _ = get(t, srv, "/api/anomalies/histogram?interval=bogus")
	if code != 400 {
		t.Errorf("bad interval: status %d", code)
	}
}

func TestModelsEndpoint(t *testing.T) {
	srv := New(buildPipeline(t))
	code, body := get(t, srv, "/api/models")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	models := body["models"].([]any)
	if len(models) != 1 {
		t.Fatalf("models = %d", len(models))
	}
	m := models[0].(map[string]any)
	if m["id"] != "m1" {
		t.Errorf("model id = %v", m["id"])
	}
}

func TestStatsAndIndex(t *testing.T) {
	srv := New(buildPipeline(t))
	code, body := get(t, srv, "/api/stats")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if body["anomalies"].(float64) != 3 {
		t.Errorf("anomalies = %v", body["anomalies"])
	}
	req := httptest.NewRequest("GET", "/", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "LogLens") {
		t.Errorf("index page: %d", rec.Code)
	}
	// Unknown path 404s.
	req = httptest.NewRequest("GET", "/nope", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 404 {
		t.Errorf("unknown path: %d", rec.Code)
	}
}

func TestByTypeEndpoint(t *testing.T) {
	srv := New(buildPipeline(t))
	code, body := get(t, srv, "/api/anomalies/by-type")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	types := body["types"].([]any)
	if len(types) != 2 { // missing-begin-state x2, unparsed-log x1
		t.Fatalf("types = %v", types)
	}
	top := types[0].(map[string]any)
	if top["type"] != "missing-begin-state" || top["count"].(float64) != 2 {
		t.Errorf("top = %v", top)
	}
}

func TestModelDOTEndpoint(t *testing.T) {
	srv := New(buildPipeline(t))
	req := httptest.NewRequest("GET", "/api/models/dot?id=m1", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "digraph automaton_") {
		t.Errorf("not a DOT document: %s", rec.Body.String())
	}
	// Missing / unknown model.
	code, _ := get(t, srv, "/api/models/dot")
	if code != 400 {
		t.Errorf("missing id: %d", code)
	}
	code, _ = get(t, srv, "/api/models/dot?id=nope")
	if code != 404 {
		t.Errorf("unknown model: %d", code)
	}
}

func TestPatternsEndpoint(t *testing.T) {
	srv := New(buildPipeline(t))
	code, body := get(t, srv, "/api/patterns")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	patterns := body["patterns"].([]any)
	if len(patterns) != 2 {
		t.Fatalf("patterns = %v", patterns)
	}
	totalParsed := 0.0
	for _, p := range patterns {
		m := p.(map[string]any)
		if m["grok"] == "" {
			t.Error("empty grok text")
		}
		totalParsed += m["parsed"].(float64)
	}
	// buildPipeline streams 2 parsed logs (the third is unparsed).
	if totalParsed != 2 {
		t.Errorf("total parsed = %v, want 2", totalParsed)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := New(buildPipeline(t))
	code, body := get(t, srv, "/api/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	counters := body["counters"].(map[string]any)
	// buildPipeline streams 3 lines: 2 parsed, 1 unparsed.
	if counters["core_lines_total"].(float64) != 3 {
		t.Errorf("core_lines_total = %v, want 3", counters["core_lines_total"])
	}
	if counters["core_parsed_total"].(float64) != 2 {
		t.Errorf("core_parsed_total = %v, want 2", counters["core_parsed_total"])
	}
	if counters["core_unparsed_total"].(float64) != 1 {
		t.Errorf("core_unparsed_total = %v, want 1", counters["core_unparsed_total"])
	}
	if _, ok := body["histograms"].(map[string]any)["core_line_seconds"]; !ok {
		t.Error("core_line_seconds histogram missing from snapshot")
	}

	// Text format: one "name value" line per metric.
	req := httptest.NewRequest("GET", "/api/metrics?format=text", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("text status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "core_lines_total 3") {
		t.Errorf("text listing missing core_lines_total:\n%s", rec.Body.String())
	}
}

func TestSourcesEndpoint(t *testing.T) {
	srv := New(buildPipeline(t))
	code, body := get(t, srv, "/api/sources")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	sources := body["sources"].([]any)
	if len(sources) != 1 {
		t.Fatalf("sources = %v", sources)
	}
	s0 := sources[0].(map[string]any)
	if s0["source"] != "tasks" || s0["model"] != "m1" {
		t.Errorf("source entry = %v", s0)
	}
	if s0["anomalies"].(float64) != 3 {
		t.Errorf("anomalies = %v", s0["anomalies"])
	}
}

// TestStorageEndpoint serves /api/storage in both modes: the
// in-memory pipeline reports persistent=false with per-index counts, and
// a persistent pipeline reports the segment engine's generation and
// flush accounting.
func TestStorageEndpoint(t *testing.T) {
	p := buildPipeline(t)
	srv := New(p)
	code, body := get(t, srv, "/api/storage")
	if code != 200 {
		t.Fatalf("GET /api/storage = %d", code)
	}
	if body["persistent"] != false {
		t.Fatalf("in-memory pipeline reported persistent=%v", body["persistent"])
	}

	pp, err := core.New(core.Config{
		DisableHeartbeat: true,
		Storage:          core.StorageConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pp.Store().Close() })
	pp.Store().Index("anomalies").Put("a1", map[string]any{"type": "x"})
	if err := pp.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, New(pp), "/api/storage")
	if code != 200 {
		t.Fatalf("GET /api/storage (persistent) = %d", code)
	}
	if body["persistent"] != true {
		t.Fatalf("persistent pipeline reported persistent=%v", body["persistent"])
	}
	if gen, ok := body["generation"].(float64); !ok || gen < 2 {
		t.Fatalf("generation = %v, want >= 2 after a flush", body["generation"])
	}
	indices, ok := body["indices"].([]any)
	if !ok || len(indices) == 0 {
		t.Fatalf("indices = %v", body["indices"])
	}
	first := indices[0].(map[string]any)
	if first["name"] != "anomalies" || first["segments"] != float64(1) {
		t.Fatalf("index entry = %v", first)
	}
}
