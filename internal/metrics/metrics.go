// Package metrics is the pipeline-wide registry: atomic counters, gauges,
// and histograms with named labels, and an immutable Snapshot for tests
// and the dashboard. The ops plane (internal/obs) carries one registry
// as obs.Ops.Metrics; components that record only counters take the
// registry itself through an Instrument(*Registry) method.
//
// LogLens is itself an observability system, so its own internals — parse
// hit/miss rates, per-stage latency, state-map occupancy, bus lag — must
// be cheap to observe. The registry is dependency-free (stdlib only) and
// built for hot paths: instruments are resolved once (a map lookup under a
// lock) and then held as handles whose operations are single atomic
// instructions, so a counter increment costs a few nanoseconds and the
// instrumented components keep the "fast as the hardware allows" budget.
//
// Conventions (see DESIGN.md "Telemetry plane"):
//
//   - Names are snake_case with a _total suffix for counters and a unit
//     suffix for histograms (_seconds, _size).
//   - Labels are passed as alternating key, value pairs and are part of
//     the instrument identity; they are canonicalized by sorting on key,
//     so Counter("x", "a", "1", "b", "2") and Counter("x", "b", "2", "a",
//     "1") resolve to the same instrument.
//   - A nil *Registry is a valid no-op sink: every resolution method on a
//     nil receiver returns a shared throwaway instrument, so optional
//     instrumentation needs no nil checks at call sites.
//
// Components resolve their handles in constructors or Instrument methods
// and the driver reads a consistent view via Snapshot, which makes test
// assertions exact: under the fake clock (internal/clock) every duration
// observation is a deterministic function of the driven timeline.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram bounds, in seconds, spanning the
// latencies the pipeline exhibits: sub-millisecond micro-batch hops up to
// multi-second stalls.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is an atomic fixed-bucket histogram. Observations land in the
// first bucket whose upper bound is >= the value; values beyond the last
// bound land in the implicit overflow bucket.
type Histogram struct {
	name   string // metric name without labels, for text rendering
	labels string // canonical label suffix ("{k=\"v\"}" or "")
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns an immutable snapshot of the histogram.
func (h *Histogram) Value() HistogramValue {
	hv := HistogramValue{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		hv.Buckets[i] = h.counts[i].Load()
	}
	return hv
}

// HistogramValue is an immutable histogram snapshot. Buckets are
// non-cumulative; Buckets[len(Bounds)] is the overflow bucket.
type HistogramValue struct {
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
}

// Registry holds named instruments. All methods are safe for concurrent
// use; resolution methods return the existing instrument when the (name,
// labels) identity is already registered. A nil *Registry is a valid
// no-op sink.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Shared sinks for the nil-registry case: written, never read.
var (
	nopCounter   = &Counter{}
	nopGauge     = &Gauge{}
	nopHistogram = newHistogram("nop", "", DefBuckets)
)

// key canonicalizes (name, label pairs) into "name{k=\"v\",...}" with the
// pairs sorted by key. labels must have even length.
func key(name string, labels []string) (full, suffix string) {
	if len(labels) == 0 {
		return name, ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %q: %v", name, labels))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, pair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return name + b.String(), b.String()
}

// Counter resolves (registering if needed) the counter with the given
// name and label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nopCounter
	}
	k, _ := key(name, labels)
	r.mu.RLock()
	c, ok := r.counters[k]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[k]; ok {
		return c
	}
	c = &Counter{}
	r.counters[k] = c
	return c
}

// Gauge resolves (registering if needed) the gauge with the given name
// and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nopGauge
	}
	k, _ := key(name, labels)
	r.mu.RLock()
	g, ok := r.gauges[k]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[k]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[k] = g
	return g
}

// Histogram resolves (registering if needed) the histogram with the given
// name, bucket upper bounds (nil selects DefBuckets), and label pairs.
// Bounds are fixed at first registration; later resolutions reuse them.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nopHistogram
	}
	k, suffix := key(name, labels)
	r.mu.RLock()
	h, ok := r.hists[k]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[k]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	h = newHistogram(name, suffix, bounds)
	r.hists[k] = h
	return h
}

func newHistogram(name, suffix string, bounds []float64) *Histogram {
	return &Histogram{
		name:   name,
		labels: suffix,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Snapshot is an immutable, consistent-enough view of every instrument:
// each value is read atomically; the set of instruments is captured under
// the registry lock. Keys are the canonical "name{labels}" identities.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot captures the current value of every registered instrument. A
// nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramValue),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.Value()
	}
	return s
}

// Counter returns the snapshot value of a counter (zero if absent).
func (s Snapshot) Counter(name string, labels ...string) uint64 {
	k, _ := key(name, labels)
	return s.Counters[k]
}

// Gauge returns the snapshot value of a gauge (zero if absent).
func (s Snapshot) Gauge(name string, labels ...string) int64 {
	k, _ := key(name, labels)
	return s.Gauges[k]
}

// Histogram returns the snapshot value of a histogram.
func (s Snapshot) Histogram(name string, labels ...string) (HistogramValue, bool) {
	k, _ := key(name, labels)
	hv, ok := s.Histograms[k]
	return hv, ok
}

// CounterSum sums every counter whose name matches regardless of labels —
// the aggregate view over labeled families (e.g. bus_produced_total
// across all topic-partitions).
func (s Snapshot) CounterSum(name string) uint64 {
	var total uint64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// WriteText renders the snapshot in expvar-style text, one instrument per
// line, sorted by key: "name{labels} value". Histograms expand into
// name_count, name_sum, and per-bucket name_bucket{...,le="bound"} lines.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms)*4)
	for k, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, hv := range s.Histograms {
		name, suffix := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name, suffix = k[:i], k[i:]
		}
		lines = append(lines, fmt.Sprintf("%s_count%s %d", name, suffix, hv.Count))
		lines = append(lines, fmt.Sprintf("%s_sum%s %g", name, suffix, hv.Sum))
		for i, b := range hv.Bounds {
			lines = append(lines, fmt.Sprintf("%s_bucket%s %d", name, bucketSuffix(suffix, fmt.Sprintf("%g", b)), hv.Buckets[i]))
		}
		lines = append(lines, fmt.Sprintf("%s_bucket%s %d", name, bucketSuffix(suffix, "+Inf"), hv.Buckets[len(hv.Bounds)]))
	}
	sort.Strings(lines)
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// bucketSuffix splices an le="bound" label into an existing label suffix.
func bucketSuffix(suffix, bound string) string {
	le := fmt.Sprintf("le=%q", bound)
	if suffix == "" {
		return "{" + le + "}"
	}
	return suffix[:len(suffix)-1] + "," + le + "}"
}
