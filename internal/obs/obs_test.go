package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"loglens/internal/clock"
)

func TestSpanRecorderRecordsAndExports(t *testing.T) {
	fake := clock.NewFake()
	r := NewSpanRecorder(fake, 16)

	driver := r.Thread("engine driver")
	worker := r.Thread("partition 0")
	if driver == worker {
		t.Fatalf("distinct labels share tid %d", driver)
	}
	if again := r.Thread("engine driver"); again != driver {
		t.Fatalf("Thread not stable: %d then %d", driver, again)
	}

	s := r.Start("stream", "batch", driver)
	fake.Advance(10 * time.Millisecond)
	inner := r.Start("stream", "p0 process", worker)
	fake.Advance(5 * time.Millisecond)
	inner.End()
	s.End()

	spans := r.Spans(time.Time{})
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "p0 process" || spans[0].Dur != 5*time.Millisecond {
		t.Fatalf("inner span wrong: %+v", spans[0])
	}
	if spans[1].Name != "batch" || spans[1].Dur != 15*time.Millisecond {
		t.Fatalf("outer span wrong: %+v", spans[1])
	}

	names := r.ThreadNames()
	if len(names) != 2 || names[driver] != "engine driver" || names[worker] != "partition 0" {
		t.Fatalf("thread names wrong: %v", names)
	}
}

func TestSpanRecorderSinceFilterAndRingWrap(t *testing.T) {
	fake := clock.NewFake()
	r := NewSpanRecorder(fake, 4)
	for i := 0; i < 6; i++ {
		s := r.Start("c", "s", 0)
		fake.Advance(time.Second)
		s.End()
	}
	spans := r.Spans(time.Time{})
	if len(spans) != 4 {
		t.Fatalf("ring of 4 retained %d spans", len(spans))
	}
	// The two oldest spans (start epochs +0s, +1s) were overwritten.
	if got := spans[0].Start; got != fake.Now().Add(-4*time.Second) {
		t.Fatalf("oldest retained span starts at %v", got)
	}
	cut := fake.Now().Add(-2 * time.Second)
	if got := r.Spans(cut); len(got) != 2 {
		t.Fatalf("since filter kept %d spans, want 2", len(got))
	}
}

func TestSpanRecorderChromeTraceIsValid(t *testing.T) {
	fake := clock.NewFake()
	r := NewSpanRecorder(fake, 8)
	tid := r.Thread("sweep")
	s := r.Start("heartbeat", "sweep", tid)
	fake.Advance(3 * time.Millisecond)
	s.End()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, time.Time{}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want metadata + span", len(doc.TraceEvents))
	}
	meta, span := doc.TraceEvents[0], doc.TraceEvents[1]
	if meta.Ph != "M" || meta.Name != "thread_name" || meta.Args["name"] != "sweep" {
		t.Fatalf("metadata event wrong: %+v", meta)
	}
	if span.Ph != "X" || span.Name != "sweep" || span.Dur != 3000 || span.Tid != tid {
		t.Fatalf("span event wrong: %+v", span)
	}
}

func TestDisabledSpanRecorderIsInert(t *testing.T) {
	var r *SpanRecorder
	if tid := r.Thread("x"); tid != 0 {
		t.Fatalf("nil Thread = %d", tid)
	}
	s := r.Start("c", "n", 0)
	s.End() // must not panic
	if got := r.Spans(time.Time{}); got != nil {
		t.Fatalf("nil Spans = %v", got)
	}
	if got := r.ThreadNames(); got != nil {
		t.Fatalf("nil ThreadNames = %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, time.Time{}); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil trace output %q", buf.String())
	}
}

func TestFlightRecorderQueryFilters(t *testing.T) {
	fake := clock.NewFake()
	f := NewFlightRecorder(fake, 16)
	f.Record(EventAnomaly, "web", "pattern 3", 1)
	fake.Advance(time.Minute)
	f.Record(EventHeartbeatExpiry, "db", "state aged out", 2)
	fake.Advance(time.Minute)
	f.Record(EventAnomaly, "web", "pattern 9", 1)

	if n := f.Len(); n != 3 {
		t.Fatalf("Len = %d", n)
	}

	all := f.Events(EventQuery{})
	if len(all) != 3 || all[0].Detail != "pattern 9" || all[2].Detail != "pattern 3" {
		t.Fatalf("events not newest-first: %+v", all)
	}
	for i, ev := range all {
		if want := uint64(2 - i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}

	byType := f.Events(EventQuery{Type: EventAnomaly})
	if len(byType) != 2 || byType[0].Detail != "pattern 9" {
		t.Fatalf("type filter: %+v", byType)
	}
	since := f.Events(EventQuery{Since: fake.Now().Add(-time.Minute)})
	if len(since) != 2 || since[1].Type != EventHeartbeatExpiry {
		t.Fatalf("since filter: %+v", since)
	}
	limited := f.Events(EventQuery{Limit: 1})
	if len(limited) != 1 || limited[0].Detail != "pattern 9" {
		t.Fatalf("limit filter: %+v", limited)
	}
}

func TestFlightRecorderRingWrapAndWriteTo(t *testing.T) {
	f := NewFlightRecorder(clock.NewFake(), 3)
	for i := 0; i < 5; i++ {
		f.Record(EventRecordsDropped, "engine", "", int64(i))
	}
	evs := f.Events(EventQuery{})
	if len(evs) != 3 || evs[0].Value != 4 || evs[2].Value != 2 {
		t.Fatalf("wrapped ring: %+v", evs)
	}

	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("WriteTo emitted %d lines", len(lines))
	}
	// Oldest first for a chronological stderr dump.
	if !strings.Contains(lines[0], "#2") || !strings.Contains(lines[2], "#4") {
		t.Fatalf("WriteTo order wrong:\n%s", buf.String())
	}
}

func TestDisabledFlightRecorderIsInert(t *testing.T) {
	var f *FlightRecorder
	f.Record(EventShutdown, "", "", 0) // must not panic
	if f.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
	if got := f.Events(EventQuery{}); got != nil {
		t.Fatalf("nil Events = %v", got)
	}
	var buf bytes.Buffer
	if n, err := f.WriteTo(&buf); n != 0 || err != nil {
		t.Fatalf("nil WriteTo = %d, %v", n, err)
	}
}

func TestFlightRecorderConcurrentRecord(t *testing.T) {
	f := NewFlightRecorder(clock.NewFake(), 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Record(EventAnomaly, "src", "", 1)
			}
		}()
	}
	wg.Wait()
	if f.Len() != 800 {
		t.Fatalf("Len = %d, want 800", f.Len())
	}
}

func TestHealthWorstOfAggregation(t *testing.T) {
	h := NewHealth()
	h.Register("bus", func() ProbeResult { return ProbeResult{Status: Healthy, Detail: "lag 0"} })
	h.Register("heartbeat", func() ProbeResult { return ProbeResult{Status: Healthy} })

	if overall, res := h.Check(); overall != Healthy || len(res) != 2 {
		t.Fatalf("all-healthy check = %v, %v", overall, res)
	}

	state := Degraded
	h.Register("pipeline", func() ProbeResult { return ProbeResult{Status: state, Detail: "flaky"} })
	overall, res := h.Check()
	if overall != Degraded {
		t.Fatalf("overall = %v, want degraded", overall)
	}
	if res["pipeline"].Detail != "flaky" {
		t.Fatalf("probe detail lost: %+v", res)
	}

	state = Unhealthy
	if overall, _ := h.Check(); overall != Unhealthy {
		t.Fatalf("overall = %v, want unhealthy", overall)
	}
	state = Healthy
	if overall, _ := h.Check(); overall != Healthy {
		t.Fatalf("overall = %v, want healthy again", overall)
	}
}

func TestHealthNilAndReplace(t *testing.T) {
	var h *Health
	h.Register("x", func() ProbeResult { return ProbeResult{Status: Unhealthy} })
	if overall, res := h.Check(); overall != Healthy || res != nil {
		t.Fatalf("nil health check = %v, %v", overall, res)
	}

	real := NewHealth()
	real.Register("", nil) // nil probe ignored
	real.Register("p", func() ProbeResult { return ProbeResult{Status: Unhealthy} })
	real.Register("p", func() ProbeResult { return ProbeResult{Status: Healthy} })
	overall, res := real.Check()
	if overall != Healthy || len(res) != 1 {
		t.Fatalf("replaced probe check = %v, %v", overall, res)
	}
}

func TestStatusJSON(t *testing.T) {
	for s, want := range map[Status]string{Healthy: `"healthy"`, Degraded: `"degraded"`, Unhealthy: `"unhealthy"`} {
		b, err := json.Marshal(s)
		if err != nil || string(b) != want {
			t.Fatalf("marshal %v = %s, %v", s, b, err)
		}
	}
}

func TestOpsBundleAccessors(t *testing.T) {
	o := New(nil)
	if o.Metrics == nil || o.Spans == nil || o.Events == nil || o.Health == nil {
		t.Fatalf("New left nil facilities: %+v", o)
	}
	if New(nil).Metrics == o.Metrics {
		t.Fatal("bundles share one registry")
	}
}
