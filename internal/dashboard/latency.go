package dashboard

import (
	"net/http"
	"time"

	"loglens/internal/latency"
	"loglens/internal/metrics"
)

// stageSummary is one row of the /api/latency stage table: observation
// count plus interpolated percentiles in milliseconds.
type stageSummary struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// latencyResponse is the /api/latency payload.
type latencyResponse struct {
	Enabled         bool                         `json:"enabled"`
	SLO             sloSummary                   `json:"slo"`
	IngestWatermark *time.Time                   `json:"ingestWatermark"`
	Stages          []stageSummary               `json:"stages"`
	Partitions      []latency.PartitionWatermark `json:"partitions"`
	Tenants         []latency.TenantWatermark    `json:"tenants"`
}

// sloSummary reports the configured end-to-end objective and how often
// it has been missed. E2eMs is 0 when no SLO is configured (the breach
// counter then never moves).
type sloSummary struct {
	E2eMs       int64  `json:"e2eMs"`
	BreachTotal uint64 `json:"breachTotal"`
}

// stageRow summarizes one latency histogram. Percentiles come from
// HistogramValue.Quantile; an empty histogram reports zeros rather than
// NaN (which encoding/json cannot emit).
func stageRow(name string, hv metrics.HistogramValue) stageSummary {
	row := stageSummary{Stage: name, Count: hv.Count}
	if hv.Count == 0 {
		return row
	}
	row.P50Ms = hv.Quantile(0.50) * 1000
	row.P95Ms = hv.Quantile(0.95) * 1000
	row.P99Ms = hv.Quantile(0.99) * 1000
	return row
}

// handleLatency reports the latency & freshness plane: per-stage and
// end-to-end percentiles, the configured SLO with its breach count, the
// ingest watermark, and the per-partition / per-tenant freshness
// watermark tables with live lag ages.
//
//	GET /api/latency
func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) {
	lat := s.pipeline.Latency()
	snap := s.pipeline.Metrics().Snapshot()
	resp := latencyResponse{
		Enabled: true,
		SLO: sloSummary{
			E2eMs:       lat.SLO().Milliseconds(),
			BreachTotal: lat.Breaches(),
		},
	}
	if wm := lat.IngestWatermark(); !wm.IsZero() {
		resp.IngestWatermark = &wm
	}
	for _, name := range latency.Stages() {
		hv, _ := snap.Histogram("latency_stage_seconds", "stage", name)
		resp.Stages = append(resp.Stages, stageRow(name, hv))
	}
	e2e, _ := snap.Histogram("core_line_seconds")
	resp.Stages = append(resp.Stages, stageRow("e2e", e2e))
	resp.Partitions, resp.Tenants = lat.Watermarks()
	if resp.Partitions == nil {
		resp.Partitions = []latency.PartitionWatermark{}
	}
	if resp.Tenants == nil {
		resp.Tenants = []latency.TenantWatermark{}
	}
	writeJSON(w, resp)
}
