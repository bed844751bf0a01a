package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestStreamIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, sp := range specs {
		hash := func(seed int64) string {
			t.Helper()
			_, st, err := streamFor(sp, seed, 3000)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.name, seed, err)
			}
			if st.total() != 3000*numSources {
				t.Fatalf("%s: stream has %d lines, want %d", sp.name, st.total(), 3000*numSources)
			}
			return st.hash()
		}
		a, again, b := hash(7), hash(7), hash(8)
		if a != again {
			t.Errorf("%s: the same seed gave two different streams", sp.name)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
		}
	}
}

func TestD1CyclesDoNotCollide(t *testing.T) {
	corpus, st, err := streamFor(specByName("d1-seq-closed"), 3, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles := len(st.lines[0]) / len(corpus.Test); cycles < 2 {
		t.Fatalf("stream holds %d cycles, the test needs at least two", cycles)
	}
	seen := map[string]bool{}
	for _, l := range st.lines[0] {
		if seen[l] {
			t.Fatalf("line repeats across cycles: %q", l)
		}
		seen[l] = true
	}
}

func TestProbeSerialsRoundTrip(t *testing.T) {
	_, st, err := streamFor(specByName("syslog-paced"), 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for src, lines := range st.lines {
		n := 0
		for k, l := range lines {
			serial, ok := parseProbe(l)
			if ok != st.isProbe(k) {
				t.Fatalf("source %d position %d: probe=%v, want %v (%q)", src, k, ok, st.isProbe(k), l)
			}
			if !ok {
				continue
			}
			if serial != st.probeSerial(src, k) || seen[serial] || serial >= st.probeSerials() {
				t.Fatalf("source %d position %d: serial %d is wrong, repeated or out of range", src, k, serial)
			}
			if st.nthProbe(n) != k {
				t.Fatalf("source %d: probe %d sits at %d, nthProbe says %d", src, n, k, st.nthProbe(n))
			}
			seen[serial] = true
			n++
		}
	}
	if _, ok := parseProbe("2016/02/24 09:00:00.000 10.0.0.1 job jb-000001 submitted queue q1"); ok {
		t.Error("a D1 line parsed as a probe")
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := median(xs); got != 500.5 {
		t.Errorf("median = %v, want 500.5", got)
	}
	if got := quantile(xs, 0.99); math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 = %v, want 990.01", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {39, 50}, {0, 50}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The p99 metrics never report above the 99th, and fall back below it.
	if _, p := tailQuantile(make([]float64, 20000)); p != 99 {
		t.Errorf("tail percentile of 20000 samples = %v, want 99", p)
	}
	if v, p := tailQuantile(xs[:500]); p != 95 || math.Abs(v-475.05) > 1e-9 {
		t.Errorf("tail of 500 samples = %v at p%v, want 475.05 at p95", v, p)
	}
}

func TestLatencyWindows(t *testing.T) {
	lat := make([]float64, 3*probeWindow)
	for i := range lat {
		lat[i] = float64(i/probeWindow + 1) // window w reads w+1 throughout
	}
	windowed := (&live{latenciesMs: lat}).endToEnd()
	for _, name := range []string{"verdict_p50_ms", "verdict_p99_ms"} {
		if s := windowed[name]; s.N != 3 || s.Median != 2 {
			t.Errorf("%s over three windows = %+v, want 3 samples with median 2", name, s)
		}
	}
	// Half a window more is spread over the three, not dropped or pooled.
	more := append(lat, make([]float64, probeWindow/2)...)
	if s := (&live{latenciesMs: more}).endToEnd()["verdict_p99_ms"]; s.N != 3 {
		t.Errorf("three and a half windows gave %d samples, want 3", s.N)
	}
	pooled := (&live{latenciesMs: lat[:probeWindow/2]}).endToEnd()
	if s := pooled["verdict_p99_ms"]; s.N != 1 || s.Median != 1 {
		t.Errorf("half a window should pool the run: got %+v", s)
	}
}

// benchmarkFileForTest loads the BENCHMARK.json this harness is the
// other half of.
func benchmarkFileForTest(t *testing.T) *benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileNamesTheWorkloads(t *testing.T) {
	bf := benchmarkFileForTest(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, specs[i].name)
		}
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s")
	}
}

// TestSmoke runs every workload end to end on tiny streams: set-up with
// the reference, the live run with its correctness check, the report, and
// once the traced ladder with its Chrome trace.
func TestSmoke(t *testing.T) {
	bf := benchmarkFileForTest(t)
	work := t.TempDir()
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			if sp.cluster && testing.Short() {
				t.Skip("builds and launches the real binaries")
			}
			res, err := runWorkload(context.Background(), bf, sp, options{seed: 1, smoke: true}, work)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range bf.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, want the %d end-to-end ones", len(res.Metrics), len(bf.EndToEnd))
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		sp := specByName("d1-seq-closed")
		res, err := runWorkload(context.Background(), bf, sp, options{seed: 1, smoke: true, trace: true, traceDir: work}, work)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(bf.PerLayer) {
			t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(res.Metrics), len(bf.PerLayer))
		}
		for _, m := range bf.PerLayer {
			if v, ok := res.Metrics[m.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s = %+v (present %v)", m.Name, v, ok)
			}
		}
		for _, name := range []string{"tokenize.ns_per_line", "seqdetect.ns_per_line", "bus.publish_ns_per_line", "stream.ns_per_line", "store.seg_put_ns_per_doc", "netbus.publish_us", "intake.ns_per_line", "recovery.checkpoint_ms"} {
			if !(res.Metrics[name].Value > 0) {
				t.Errorf("%s = %v, want a measured positive time", name, res.Metrics[name].Value)
			}
		}
		data, err := os.ReadFile(filepath.Join(work, "trace-"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("trace is not JSON: %v", err)
		}
		layers := map[string]bool{}
		for _, e := range tr.TraceEvents {
			if e.Ph == "X" {
				layers[e.Name] = true
				if _, ok := e.Args["batch"]; !ok {
					t.Fatalf("span %s has no batch id", e.Name)
				}
			}
		}
		for _, want := range []string{"tokenize", "timestamp", "preprocess", "parser", "grok", "seqdetect", "bus.publish", "bus.poll", "logmanager", "stream", "store.seg_put", "store.sync", "store.flush", "netbus.publish", "intake", "recovery.checkpoint"} {
			if !layers[want] {
				t.Errorf("trace has no %s span", want)
			}
		}
	})
}
