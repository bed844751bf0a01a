package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lines_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("open_states")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestResolutionReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("produced", "topic", "logs", "partition", "0")
	b := r.Counter("produced", "partition", "0", "topic", "logs") // reordered labels
	if a != b {
		t.Fatal("label order changed instrument identity")
	}
	a.Inc()
	if got := r.Snapshot().Counter("produced", "topic", "logs", "partition", "0"); got != 1 {
		t.Fatalf("snapshot counter = %d, want 1", got)
	}
	if r.Counter("produced", "topic", "other", "partition", "0") == a {
		t.Fatal("distinct labels resolved to the same instrument")
	}
}

func TestOddLabelsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	NewRegistry().Counter("x", "only-a-key")
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", nil).Observe(0.5)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	hv := h.Value()
	if hv.Count != 5 {
		t.Fatalf("count = %d, want 5", hv.Count)
	}
	if want := 0.005 + 0.01 + 0.05 + 0.5 + 5; math.Abs(hv.Sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", hv.Sum, want)
	}
	// 0.005 and 0.01 land in the first bucket (<= 0.01), 0.05 in the
	// second, 0.5 in the third, 5 overflows.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if hv.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hv.Buckets[i], w, hv.Buckets)
		}
	}
	// Re-resolution keeps the original bounds.
	if h2 := r.Histogram("latency_seconds", []float64{42}); h2 != h {
		t.Fatal("histogram re-resolution created a new instrument")
	}
}

func TestCounterSum(t *testing.T) {
	r := NewRegistry()
	r.Counter("bus_produced_total", "partition", "0").Add(3)
	r.Counter("bus_produced_total", "partition", "1").Add(4)
	r.Counter("bus_produced_totally_different").Add(100)
	if got := r.Snapshot().CounterSum("bus_produced_total"); got != 7 {
		t.Fatalf("CounterSum = %d, want 7", got)
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	s := r.Snapshot()
	c.Add(10)
	if got := s.Counter("x"); got != 1 {
		t.Fatalf("snapshot mutated after capture: %d", got)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("lines_total", "source", "web").Add(2)
	r.Gauge("open_states").Set(1)
	r.Histogram("lat_seconds", []float64{0.1}, "engine", "parse").Observe(0.05)
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lines_total{source="web"} 2`,
		`open_states 1`,
		`lat_seconds_count{engine="parse"} 1`,
		`lat_seconds_sum{engine="parse"} 0.05`,
		`lat_seconds_bucket{engine="parse",le="0.1"} 1`,
		`lat_seconds_bucket{engine="parse",le="+Inf"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Sorted output: lines must be in order.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("text output not sorted: %q > %q", lines[i-1], lines[i])
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c", "w", "x").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", nil).Observe(float64(j) / 1000)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter("c", "w", "x"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := s.Gauge("g"); got != 8000 {
		t.Fatalf("gauge = %d, want 8000", got)
	}
	if hv, _ := s.Histogram("h"); hv.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", hv.Count)
	}
}
