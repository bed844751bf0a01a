package dashboard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"loglens/internal/obs"
	"loglens/internal/recovery"
)

// registerOps mounts the ops-plane endpoints: health probes, the flight
// recorder, trace export, the live metrics stream, and pprof.
func (s *Server) registerOps() {
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/api/events", s.handleEvents)
	s.mux.HandleFunc("/api/deadletter", s.handleDeadLetter)
	s.mux.HandleFunc("/debug/trace", s.handleTrace)
	s.mux.HandleFunc("/api/metrics/stream", s.handleMetricsStream)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// handleHealthz reports liveness: 200 while the service can do its job
// (healthy or merely degraded), 503 once any probe is unhealthy. The
// body always carries the per-probe detail.
//
//	GET /healthz
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	overall, probes := s.pipeline.Ops().Health.Check()
	w.Header().Set("Content-Type", "application/json")
	if overall == obs.Unhealthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSONBody(w, map[string]any{"status": overall, "probes": probes})
}

// handleReadyz reports readiness: 200 only when every probe is fully
// healthy, 503 otherwise — degraded is enough to stop routing new load.
//
//	GET /readyz
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	overall, probes := s.pipeline.Ops().Health.Check()
	w.Header().Set("Content-Type", "application/json")
	if overall != obs.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSONBody(w, map[string]any{"status": overall, "probes": probes})
}

// handleEvents queries the flight recorder, newest first.
//
//	GET /api/events?type=heartbeat-expiry&since=RFC3339&limit=50
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var q obs.EventQuery
	q.Type = obs.EventType(r.URL.Query().Get("type"))
	if v := r.URL.Query().Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad since: %v", err)
			return
		}
		q.Since = t
	}
	q.Limit = 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		q.Limit = n
	}
	events := s.pipeline.Ops().Events.Events(q)
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, map[string]any{"total": len(events), "events": events})
}

// handleDeadLetter lists quarantined poison records from the deadletter
// topic, oldest first, with the error context captured at quarantine
// time. Empty (but valid) when recovery is disabled.
//
//	GET /api/deadletter?limit=100
func (s *Server) handleDeadLetter(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	msgs := s.pipeline.DeadLetters(limit)
	type dlEntry struct {
		Source  string    `json:"source"`
		Seq     string    `json:"seq"`
		Raw     string    `json:"raw"`
		Error   string    `json:"error"`
		Strikes string    `json:"strikes"`
		Time    time.Time `json:"time"`
	}
	entries := make([]dlEntry, 0, len(msgs))
	for _, m := range msgs {
		entries = append(entries, dlEntry{
			Source:  m.Headers[recovery.HeaderDLSource],
			Seq:     m.Headers[recovery.HeaderDLSeq],
			Raw:     string(m.Value),
			Error:   m.Headers[recovery.HeaderDLError],
			Strikes: m.Headers[recovery.HeaderDLStrikes],
			Time:    m.Time,
		})
	}
	writeJSON(w, map[string]any{
		"total":      s.pipeline.QuarantinedCount(),
		"returned":   len(entries),
		"deadletter": entries,
	})
}

// handleTrace exports the spans of the trailing window as Chrome
// trace-event JSON — load it in chrome://tracing or Perfetto.
//
//	GET /debug/trace?sec=30
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sec := 60
	if v := r.URL.Query().Get("sec"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad sec %q", v)
			return
		}
		sec = n
	}
	since := s.clk.Now().Add(-time.Duration(sec) * time.Second)
	w.Header().Set("Content-Type", "application/json")
	s.pipeline.Ops().Spans.WriteChromeTrace(w, since)
}

// handleMetricsStream pushes metrics snapshots as Server-Sent Events:
// one immediately, then one per interval — the dashboard front page
// subscribes with EventSource for live updates.
//
//	GET /api/metrics/stream?interval=1s
func (s *Server) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad interval %q", v)
			return
		}
		interval = d
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	send := func() error {
		data, err := json.Marshal(s.pipeline.Metrics().Snapshot())
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}
	if err := send(); err != nil {
		return
	}
	ticker := s.clk.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C():
			if err := send(); err != nil {
				return
			}
		}
	}
}
