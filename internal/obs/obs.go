// Package obs is the ops plane of LogLens: the subsystem that lets an
// operator ask a *running* deployment why it is misbehaving. PR 2's
// metrics registry answers "how much"; this package answers "where does
// the time go" (hierarchical spans exportable as Chrome trace-event
// JSON), "what just happened" (a bounded flight recorder of structured
// events — anomalies, heartbeat expiries, rebroadcasts, worker crashes,
// drops, storage errors), and "is it serving" (per-component health
// probes aggregated into /healthz and /readyz).
//
// Design rules, shared with internal/metrics:
//
//   - A nil receiver is a valid disabled instrument. Every recording
//     method no-ops on nil, so components hold plain pointer fields and
//     pay only a nil check when the ops plane is off — the disabled path
//     costs low single-digit nanoseconds with zero allocations
//     (BenchmarkSpanDisabled, BenchmarkRecordDisabled).
//   - Storage is bounded. Spans and events land in fixed-capacity rings;
//     a deployment that misbehaves for a week still holds the most
//     recent window, never an unbounded backlog.
//   - Time comes from the injected clock (internal/clock), so the chaos
//     scenarios drive health-state flips and span timelines
//     deterministically on a clock.Fake.
package obs

import "loglens/internal/clock"

// Ops bundles the three ops-plane facilities a component may need. The
// zero value (all nil) is fully disabled; New returns an enabled bundle.
type Ops struct {
	// Spans records hierarchical timing spans for trace export.
	Spans *SpanRecorder
	// Events is the flight recorder of structured runtime events.
	Events *FlightRecorder
	// Health aggregates per-component probes.
	Health *Health
}

// New returns an enabled Ops bundle on clk with default ring capacities.
func New(clk clock.Clock) *Ops {
	if clk == nil {
		clk = clock.New()
	}
	return &Ops{
		Spans:  NewSpanRecorder(clk, 0),
		Events: NewFlightRecorder(clk, 0),
		Health: NewHealth(),
	}
}

// spans returns the bundle's span recorder (nil-safe).
func (o *Ops) spans() *SpanRecorder {
	if o == nil {
		return nil
	}
	return o.Spans
}

// events returns the bundle's flight recorder (nil-safe).
func (o *Ops) events() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Events
}

// SpansOf returns ops.Spans, tolerating a nil bundle — the accessor
// components use at wiring time so a disabled ops plane yields nil
// instrument fields.
func SpansOf(o *Ops) *SpanRecorder { return o.spans() }

// EventsOf returns ops.Events, tolerating a nil bundle.
func EventsOf(o *Ops) *FlightRecorder { return o.events() }
