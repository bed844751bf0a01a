package metrics

import (
	"testing"
	"time"
)

// The registry lives on every hot path of the pipeline, so its costs are
// benchmarked here: a counter increment should stay within a few
// nanoseconds and a disabled (nil) tracer should cost zero allocations.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

// BenchmarkCounterResolve measures the cold path: callers are expected to
// resolve once and hold the handle, but resolution must still be cheap
// enough for per-anomaly label lookups.
func BenchmarkCounterResolve(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("bench_total", "topic", "logs", "partition", "0")
	}
}

// BenchmarkDisabledTracer is the instrumented-component idiom with tracing
// off: a nil interface check and nothing else. Must be ~0 ns, 0 allocs.
func BenchmarkDisabledTracer(b *testing.B) {
	var tr Tracer
	src, seq := "web", uint64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Stamp(src, seq, StageParser, "pattern=1")
		}
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter("c", "i", string(rune('a'+i%26)), "j", string(rune('a'+i/26))).Inc()
	}
	r.Histogram("h", nil).Observe(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

func BenchmarkHistogramObserveSince(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", nil)
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Since(start).Seconds())
	}
}
