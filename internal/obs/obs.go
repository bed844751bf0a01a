// Package obs is the ops plane of LogLens: the one telemetry handle a
// component is given. It answers "how much" (the metrics registry it
// carries), "where does the time go" (hierarchical spans exportable as
// Chrome trace-event JSON, plus the per-stage latency histograms and
// freshness watermarks of latency.go), "what just happened" (a bounded
// flight recorder of structured events — anomalies, heartbeat expiries,
// rebroadcasts, worker crashes, drops, storage errors), and "is it
// serving" (per-component health probes aggregated into /healthz and
// /readyz).
//
// Design rules, shared with internal/metrics:
//
//   - The pipeline always runs the plane: a core.Config without Ops gets
//     a private New bundle, the way a nil Clock gets the wall clock.
//   - A nil recorder is still a valid no-op, so components built outside
//     a pipeline (a bare bus.New, a netbus endpoint in a benchmark) hold
//     plain pointer fields and pay only a nil check (BenchmarkSpanDisabled,
//     BenchmarkRecordDisabled).
//   - Storage is bounded. Spans and events land in fixed-capacity rings;
//     a deployment that misbehaves for a week still holds the most
//     recent window, never an unbounded backlog.
//   - Time comes from the injected clock (internal/clock), so the chaos
//     scenarios drive health-state flips and span timelines
//     deterministically on a clock.Fake.
package obs

import (
	"loglens/internal/clock"
	"loglens/internal/metrics"
)

// Ops bundles the ops-plane facilities a component may need. Components
// that record more than counters take it whole through an
// Instrument(*Ops) method; New fills every field.
type Ops struct {
	// Metrics is the registry of counters, gauges and histograms.
	Metrics *metrics.Registry
	// Spans records hierarchical timing spans for trace export.
	Spans *SpanRecorder
	// Events is the flight recorder of structured runtime events.
	Events *FlightRecorder
	// Health aggregates per-component probes.
	Health *Health
}

// New returns a bundle on clk with a fresh registry and default ring
// capacities.
func New(clk clock.Clock) *Ops {
	if clk == nil {
		clk = clock.New()
	}
	return &Ops{
		Metrics: metrics.NewRegistry(),
		Spans:   NewSpanRecorder(clk, 0),
		Events:  NewFlightRecorder(clk, 0),
		Health:  NewHealth(),
	}
}
