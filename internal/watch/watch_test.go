package watch

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/core"
	"loglens/internal/dashboard"
	"loglens/internal/obs"
)

// update re-records the testdata fixtures (the SSE stream, events, and
// health bodies captured from a live dashboard server) and the golden
// frame: go test ./internal/watch/ -run TestGoldenFrame -update
var update = flag.Bool("update", false, "re-record watch fixtures and golden frame")

func TestReadStream(t *testing.T) {
	in := strings.Join([]string{
		": comment",
		"event: message",
		"data: {\"a\":1}",
		"",
		"data: line1",
		"data: line2",
		"",
		"retry: 100",
		"data: tail-no-blank",
	}, "\n")
	var got []string
	err := ReadStream(strings.NewReader(in), func(data []byte) bool {
		got = append(got, string(data))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"a":1}`, "line1\nline2", "tail-no-blank"}
	if len(got) != len(want) {
		t.Fatalf("got %d frames %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReadStreamStopsWhenFnReturnsFalse(t *testing.T) {
	in := "data: one\n\ndata: two\n\n"
	n := 0
	if err := ReadStream(strings.NewReader(in), func([]byte) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("fn called %d times, want 1 (stop after false)", n)
	}
}

func TestParseKey(t *testing.T) {
	for _, tc := range []struct {
		key, name string
		labels    map[string]string
	}{
		{"core_lines_total", "core_lines_total", nil},
		{`freshness_event_lag_ms{partition="3"}`, "freshness_event_lag_ms",
			map[string]string{"partition": "3"}},
		{`intake_tenant_shed_total{reason="rate",tenant="web01"}`, "intake_tenant_shed_total",
			map[string]string{"reason": "rate", "tenant": "web01"}},
	} {
		name, labels := parseKey(tc.key)
		if name != tc.name {
			t.Errorf("parseKey(%q) name = %q, want %q", tc.key, name, tc.name)
		}
		if len(labels) != len(tc.labels) {
			t.Errorf("parseKey(%q) labels = %v, want %v", tc.key, labels, tc.labels)
		}
		for k, v := range tc.labels {
			if labels[k] != v {
				t.Errorf("parseKey(%q)[%s] = %q, want %q", tc.key, k, labels[k], v)
			}
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 5); got != "     " {
		t.Errorf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{0, 50, 100}, 5)
	if want := "  ▁▄█"; got != want {
		t.Errorf("sparkline = %q, want %q", got, want)
	}
	// Window: only the trailing width samples render.
	if got := sparkline([]float64{1, 2, 100, 100}, 2); got != "██" {
		t.Errorf("windowed sparkline = %q", got)
	}
}

func TestFormatHelpers(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{fmtSeconds(0.0000075), "7.5µs"},
		{fmtSeconds(0.0722), "72.20ms"},
		{fmtSeconds(2.5), "2.50s"},
		{fmtSeconds(0), "0"},
		{fmtLagMs(-1), "-"},
		{fmtLagMs(25), "25ms"},
		{fmtLagMs(1500), "1.5s"},
		{fmtCount(999), "999"},
		{fmtCount(12345), "12.3k"},
		{fmtCount(2_500_000), "2.50M"},
		{fmtRate(3.14), "3.1"},
		{fmtRate(1234), "1234"},
		{fmtRate(45000), "45.0k"},
	} {
		if tc.got != tc.want {
			t.Errorf("format = %q, want %q", tc.got, tc.want)
		}
	}
}

// TestModelThroughputSamples: frame deltas against the fake clock become
// lines/sec samples; the first frame only primes the baseline.
func TestModelThroughputSamples(t *testing.T) {
	fc := clock.NewFake()
	m := NewModel(fc)
	frame := func(lines int) []byte {
		return []byte(fmt.Sprintf(`{"counters":{"core_lines_total":%d},"gauges":{},"histograms":{}}`, lines))
	}
	if err := m.ApplyMetrics(frame(1000)); err != nil {
		t.Fatal(err)
	}
	if len(m.rates) != 0 {
		t.Fatalf("rates after priming frame = %v, want none", m.rates)
	}
	fc.Advance(2 * time.Second)
	if err := m.ApplyMetrics(frame(3000)); err != nil {
		t.Fatal(err)
	}
	if len(m.rates) != 1 || m.rates[0] != 1000 {
		t.Fatalf("rates = %v, want [1000] (2000 lines / 2s)", m.rates)
	}
	// A counter reset (restart) must not produce a negative sample.
	fc.Advance(time.Second)
	if err := m.ApplyMetrics(frame(0)); err != nil {
		t.Fatal(err)
	}
	if len(m.rates) != 1 {
		t.Fatalf("rates after reset = %v, want unchanged", m.rates)
	}
}

// recordFixtures captures the testdata files from a real dashboard
// server on a fake clock: a deterministic pipeline registry is driven
// between SSE ticks, so the recorded stream, events, and health bodies
// are reproducible byte for byte.
func recordFixtures(t *testing.T) {
	t.Helper()
	fc := clock.NewFake()
	ops := obs.New(fc)
	p, err := core.New(core.Config{
		Clock:            fc,
		Ops:              ops,
		DisableHeartbeat: true,
		Partitions:       2,
		SLOE2E:           50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := dashboard.New(p)
	srv.SetClock(fc)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	reg := p.Metrics()
	lines := reg.Counter("core_lines_total")
	parsed := reg.Counter("core_parsed_total")
	unparsed := reg.Counter("core_unparsed_total")
	anomalies := reg.Counter("core_anomalies_total", "type", "missing-end-state")
	shed := reg.Counter("intake_lines_shed_total", "reason", "rate")
	tenantShed := reg.Counter("intake_tenant_shed_total", "reason", "rate", "tenant", "web01")
	e2e := reg.Histogram("core_line_seconds", nil)

	lat := p.Latency()
	for i := 0; i < 90; i++ {
		lat.Observe(obs.StageIntake, 300*time.Microsecond)
		lat.Observe(obs.StageDeliver, 70*time.Millisecond)
		lat.Observe(obs.StageParse, 8*time.Microsecond)
		lat.Observe(obs.StageDetect, 12*time.Microsecond)
		e2e.Observe(0.0722)
		lat.CheckSLO(72 * time.Millisecond)
	}
	base := fc.Now()
	lat.NoteIngest(base)
	lat.Partition(0).Note(base.Add(-25*time.Millisecond).UnixNano(), base.Add(-25*time.Millisecond).UnixNano())
	lat.Partition(1).Note(base.Add(-100*time.Millisecond).UnixNano(), base.Add(-40*time.Millisecond).UnixNano())
	lat.Tenant("web01").Note(base.Add(-25*time.Millisecond).UnixNano(), base.Add(-25*time.Millisecond).UnixNano())
	lat.Tenant("db01").Note(base.Add(-2*time.Second).UnixNano(), base.Add(-2*time.Second).UnixNano())
	lat.Refresh()

	lines.Add(1000)
	parsed.Add(960)
	unparsed.Add(40)
	anomalies.Add(12)
	shed.Add(15)
	tenantShed.Add(15)

	ops.Events.Record(obs.EventIntakeShed, "web01", "rate", 15)
	fc.Advance(3 * time.Second)
	ops.Events.Record(obs.EventAnomaly, "tasks", "missing-end-state", 1)
	fc.Advance(2 * time.Second)
	ops.Events.Record(obs.EventHeartbeatExpiry, "db01", "event e42 expired", 1)

	// Capture four SSE frames, bumping the line counters between ticks
	// so the replayed sparkline has three distinct samples.
	resp, err := http.Get(ts.URL + "/api/metrics/stream?interval=1s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	readFrame := func() []byte {
		var frame []byte
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("reading SSE frame: %v", err)
			}
			frame = append(frame, line...)
			if bytes.Equal(line, []byte("\n")) {
				return frame
			}
		}
	}
	var stream []byte
	stream = append(stream, readFrame()...)
	for _, bump := range []uint64{12000, 15000, 9000} {
		lines.Add(bump)
		parsed.Add(bump)
		fc.BlockUntil(1)
		fc.Advance(time.Second)
		stream = append(stream, readFrame()...)
	}

	fetch := func(path string) []byte {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	events := fetch("/api/events?limit=8")
	health := fetch("/healthz")

	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"stream.sse", stream},
		{"events.json", events},
		{"healthz.json", health},
	} {
		if err := os.WriteFile(filepath.Join("testdata", f.name), f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenFrame replays the recorded SSE stream, events, and health
// fixtures through the model under a fake clock and compares the
// rendered ANSI frame byte for byte against the checked-in golden —
// the `loglens watch` display with no live server anywhere.
func TestGoldenFrame(t *testing.T) {
	if *update {
		recordFixtures(t)
	}
	readFixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	stream := readFixture("stream.sse")
	events := readFixture("events.json")
	health := readFixture("healthz.json")

	fc := clock.NewFake()
	m := NewModel(fc)
	frames := 0
	err := ReadStream(bytes.NewReader(stream), func(data []byte) bool {
		fc.Advance(time.Second)
		if err := m.ApplyMetrics(data); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		frames++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames != 4 {
		t.Fatalf("fixture has %d frames, want 4", frames)
	}
	if err := m.ApplyEvents(events); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyHealth(health); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	m.Render(&buf)
	goldenPath := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rendered frame differs from golden (rerun with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// Spot-check load-bearing content so the golden cannot silently rot
	// into an empty frame.
	out := buf.String()
	for _, want := range []string{
		"LOGLENS WATCH",
		"lines 37.0k",
		"SLO breaches 90",
		"partition 0",
		"web01",
		"intake-shed",
		"degraded", // pipeline not started in the recording
	} {
		if !strings.Contains(out, want) {
			t.Errorf("golden frame missing %q", want)
		}
	}
}
