package watch

import (
	"fmt"
	"io"

	"loglens/internal/obs"
)

// ANSI fragments used by the renderer. Colors are deliberately minimal:
// bold section headers and a traffic-light health badge.
const (
	ansiReset = "\x1b[0m"
	ansiBold  = "\x1b[1m"
	ansiDim   = "\x1b[2m"
	ansiRed   = "\x1b[31m"
	ansiGreen = "\x1b[32m"
	ansiAmber = "\x1b[33m"

	// ClearScreen homes the cursor and erases the display — the live
	// loop writes it before every frame.
	ClearScreen = "\x1b[H\x1b[2J"
)

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders samples as a fixed-width block-element strip,
// left-padded while the ring is still filling, scaled to the window max.
func sparkline(samples []float64, width int) string {
	if len(samples) > width {
		samples = samples[len(samples)-width:]
	}
	var max float64
	for _, s := range samples {
		if s > max {
			max = s
		}
	}
	out := make([]rune, 0, width)
	for i := len(samples); i < width; i++ {
		out = append(out, ' ')
	}
	for _, s := range samples {
		i := 0
		if max > 0 {
			i = int(s / max * float64(len(sparkRunes)-1))
		}
		out = append(out, sparkRunes[i])
	}
	return string(out)
}

// fmtSeconds renders a latency in seconds with a magnitude-appropriate
// unit: microseconds below a millisecond, milliseconds below a second.
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// fmtLagMs renders a freshness lag age; -1 means no data yet.
func fmtLagMs(ms int64) string {
	switch {
	case ms < 0:
		return "-"
	case ms < 1000:
		return fmt.Sprintf("%dms", ms)
	default:
		return fmt.Sprintf("%.1fs", float64(ms)/1000)
	}
}

// fmtCount renders a large count compactly.
func fmtCount(n uint64) string {
	switch {
	case n < 10_000:
		return fmt.Sprintf("%d", n)
	case n < 1_000_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	}
}

// fmtRate renders a lines/sec figure.
func fmtRate(r float64) string {
	switch {
	case r < 10:
		return fmt.Sprintf("%.1f", r)
	case r < 10_000:
		return fmt.Sprintf("%.0f", r)
	default:
		return fmt.Sprintf("%.1fk", r/1e3)
	}
}

// statusColor maps a health status to its badge color.
func statusColor(status string) string {
	switch status {
	case "healthy":
		return ansiGreen
	case "degraded":
		return ansiAmber
	case "":
		return ansiDim
	default:
		return ansiRed
	}
}

// Render writes one complete dashboard frame. The frame is a function
// of the model state and the injected clock only, so fixture-driven
// tests compare frames byte for byte.
func (m *Model) Render(w io.Writer) {
	status := m.health.Status
	if status == "" {
		status = "unknown"
	}
	fmt.Fprintf(w, "%sLOGLENS WATCH%s  %s  %s[%s]%s\n\n",
		ansiBold, ansiReset,
		m.clk.Now().UTC().Format("2006-01-02 15:04:05"),
		statusColor(m.health.Status), status, ansiReset)

	// Throughput: sparkline over the frame-delta samples plus totals.
	var current float64
	if len(m.rates) > 0 {
		current = m.rates[len(m.rates)-1]
	}
	fmt.Fprintf(w, "%sThroughput%s  %s %s lines/s\n", ansiBold, ansiReset,
		sparkline(m.rates, sparkWidth), fmtRate(current))
	fmt.Fprintf(w, "  lines %s  parsed %s  unparsed %s  anomalies %s  shed %s\n\n",
		fmtCount(m.snap.Counter("core_lines_total")),
		fmtCount(m.snap.Counter("core_parsed_total")),
		fmtCount(m.snap.Counter("core_unparsed_total")),
		fmtCount(m.snap.CounterSum("core_anomalies_total")),
		fmtCount(m.snap.CounterSum("intake_lines_shed_total")))

	// Per-stage latency percentiles, client-side from the snapshot's
	// histogram buckets.
	fmt.Fprintf(w, "%sLatency%s %13s %9s %9s %9s\n", ansiBold, ansiReset,
		"count", "p50", "p95", "p99")
	stageRow := func(label string, name string, labels ...string) {
		hv, ok := m.snap.Histogram(name, labels...)
		if !ok || hv.Count == 0 {
			fmt.Fprintf(w, "  %-10s %10s %9s %9s %9s\n", label, "0", "-", "-", "-")
			return
		}
		fmt.Fprintf(w, "  %-10s %10s %9s %9s %9s\n", label, fmtCount(hv.Count),
			fmtSeconds(hv.Quantile(0.50)),
			fmtSeconds(hv.Quantile(0.95)),
			fmtSeconds(hv.Quantile(0.99)))
	}
	for _, st := range obs.Stages() {
		stageRow(st, "latency_stage_seconds", "stage", st)
	}
	stageRow("e2e", "core_line_seconds")
	if breaches := m.snap.Counter("latency_slo_breach_total"); breaches > 0 {
		fmt.Fprintf(w, "  %sSLO breaches %d%s\n", ansiRed, breaches, ansiReset)
	}
	fmt.Fprintln(w)

	// Freshness watermark lag per partition.
	event := m.gaugeSeries("freshness_event_lag_ms", "partition")
	proc := m.gaugeSeries("freshness_proc_lag_ms", "partition")
	fmt.Fprintf(w, "%sFreshness%s %12s %10s\n", ansiBold, ansiReset, "event lag", "proc lag")
	for _, part := range sortedKeys(event) {
		fmt.Fprintf(w, "  partition %-3s %7s %10s\n", part,
			fmtLagMs(event[part]), fmtLagMs(proc[part]))
	}
	fmt.Fprintln(w)

	// Per-tenant freshness and shed accounting, merged over every
	// tenant either table knows about.
	tEvent := m.gaugeSeries("freshness_event_lag_ms", "tenant")
	tProc := m.gaugeSeries("freshness_proc_lag_ms", "tenant")
	shed := m.counterSumBy("intake_tenant_shed_total", "tenant")
	all := make(map[string]struct{})
	for t := range tEvent {
		all[t] = struct{}{}
	}
	for t := range shed {
		all[t] = struct{}{}
	}
	if len(all) > 0 {
		fmt.Fprintf(w, "%sTenants%s %14s %10s %9s\n", ansiBold, ansiReset,
			"event lag", "proc lag", "shed")
		for _, t := range sortedKeys(all) {
			ev, okE := tEvent[t]
			pr, okP := tProc[t]
			if !okE {
				ev = -1
			}
			if !okP {
				pr = -1
			}
			fmt.Fprintf(w, "  %-12s %8s %10s %9s\n", t,
				fmtLagMs(ev), fmtLagMs(pr), fmtCount(shed[t]))
		}
		fmt.Fprintln(w)
	}

	// Health probes.
	if len(m.health.Probes) > 0 {
		fmt.Fprintf(w, "%sProbes%s\n", ansiBold, ansiReset)
		for _, name := range sortedKeys(m.health.Probes) {
			p := m.health.Probes[name]
			fmt.Fprintf(w, "  %-10s %s%-9s%s %s\n", name,
				statusColor(p.Status), p.Status, ansiReset, p.Detail)
		}
		fmt.Fprintln(w)
	}

	// Recent flight-recorder events, newest first.
	if len(m.events) > 0 {
		fmt.Fprintf(w, "%sEvents%s\n", ansiBold, ansiReset)
		evs := m.events
		if len(evs) > 8 {
			evs = evs[:8]
		}
		for _, ev := range evs {
			fmt.Fprintf(w, "  %s  %-18s %-10s %s", ev.Time.UTC().Format("15:04:05"),
				ev.Type, ev.Source, ev.Detail)
			if ev.Value != 0 {
				fmt.Fprintf(w, " (%d)", ev.Value)
			}
			fmt.Fprintln(w)
		}
	}
}
