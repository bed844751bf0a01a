package obs

import (
	"testing"

	"loglens/internal/clock"
)

// The disabled path is the price a component built outside a pipeline (a
// bare bus, a benchmark's netbus endpoint) pays for its nil recorders —
// it must stay in the low single-digit nanoseconds with zero allocations
// (≤ 5ns/op, 0 allocs).

func BenchmarkSpanDisabled(b *testing.B) {
	var r *SpanRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.Start("stream", "batch", 0)
		s.End()
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	var f *FlightRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(EventAnomaly, "src", "detail", 1)
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	r := NewSpanRecorder(clock.New(), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.Start("stream", "batch", 0)
		s.End()
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	f := NewFlightRecorder(clock.New(), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(EventAnomaly, "src", "detail", 1)
	}
}
