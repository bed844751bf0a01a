// Command bench is the LogLens benchmark: four workloads, the end-to-end
// metrics a user of the system would see, and a traced single-threaded
// ladder that decomposes them by layer. BENCHMARK.json at the repository
// root is its contract; README.md explains every name.
//
//	go run -C bench . -workload d1-seq-closed -seed 1 -seconds 10 -trace 0
//	go run -C bench . -repeat 2          # every workload twice, compared against the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	repeat   int
	// traceDir is where a traced run leaves its Chrome trace; unlike the
	// run's working directory it outlives the run.
	traceDir string
}

// smokeLines is the stream size of a -smoke pass.
const smokeLines = 8000

// runWorkload sets up and runs one workload and returns its result; the
// detailed report goes to stderr.
func runWorkload(ctx context.Context, bf *benchmarkFile, sp *spec, o options, work string) (*result, error) {
	seconds, lines, setups := o.seconds, ladderLines, setupRepeats
	if o.trace {
		// The traced run spends half its time on a live run, for the
		// figures only a live run gives, and the rest on the ladder.
		seconds /= 2
	}
	if o.smoke {
		seconds, lines, setups = 1, smokeLines, 1
		small := *sp
		small.lines = func(float64) int { return smokeLines }
		sp = &small
	}
	pl, took, err := timedSetUp(ctx, sp, o.seed, seconds, work, setups)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if pl.cluster != nil {
		defer os.RemoveAll(pl.cluster.dir)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: stream %d lines, sha256 %s\n", sp.name, o.seed, pl.stream.total(), pl.stream.hash()[:16])
	lv, err := sp.run(ctx, pl, seconds)
	if err != nil {
		return nil, err
	}
	e2e := lv.endToEnd()
	e2e["setup_s"] = summarize(took)
	res := &result{Correct: lv.failed == 0, Attempted: lv.attempted, Failed: lv.failed, Metrics: map[string]value{}}
	for _, f := range lv.failures {
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", f)
	}
	for _, m := range bf.EndToEnd {
		s, ok := e2e[m.Name]
		if !ok || s.N == 0 {
			return nil, fmt.Errorf("%s: no samples for end-to-end metric %s", sp.name, m.Name)
		}
		fmt.Fprintf(os.Stderr, "  %-18s %12.4f %-8s (q1 %.4f, q3 %.4f, n %d)\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
		if !o.trace {
			res.Metrics[m.Name] = value{s.Median, m.Unit}
		}
	}
	if !o.trace {
		return res, nil
	}

	tracePath := filepath.Join(o.traceDir, "trace-"+sp.name+".json")
	lad, err := runLadder(ctx, pl, lines, work, tracePath)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "  trace written to %s\n", tracePath)
	layer := lad.metrics
	for k, v := range lv.extra {
		layer[k] = v
	}
	layer["stream.speedup_vs_serial"] = e2e["lines_per_s"].Median * lad.serialNsPerLine / 1e9
	layer["core.glue_ns_per_line"] = e2e["cpu_us_per_line"].Median*1e3 - lad.serialNsPerLine
	for _, m := range bf.PerLayer {
		v := layer[m.Name] // a layer the workload never enters reports zero
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	return res, nil
}

// calibrationNs times the repository's fixed FNV-1a-over-1-KiB loop (a
// copy of BenchmarkCalibration) so that reports from different machines
// can be told apart. It is never used to rescale a metric.
func calibrationNs() float64 {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	const iters = 50_000
	var sink uint32
	start := time.Now()
	for i := 0; i < iters; i++ {
		h := uint32(2166136261)
		for _, c := range buf {
			h ^= uint32(c)
			h *= 16777619
		}
		sink += h
	}
	ns := float64(time.Since(start).Nanoseconds()) / iters
	if sink == 42 {
		ns++ // keeps the loop alive
	}
	return ns
}

func printEnvironment(root string) {
	sha := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(os.Stderr, "environment: nproc %d, GOMAXPROCS %d, %s %s/%s, git %s, calibration %.0f ns\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, sha, calibrationNs())
}

// worse is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worse(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runInChild runs one workload in a fresh process of this same binary,
// as the driver does, and returns the result it printed. Several runs in
// one process would share a heap and a peak-RSS high-water mark.
func runInChild(ctx context.Context, sp *spec, o options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", sp.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	return &res, nil
}

// runAll runs the selected workloads o.repeat times — in this process
// when there is one run to make, otherwise each in a child. With two or
// more sets it compares each later set with the first against the bounds
// and reports a breach as an error.
func runAll(ctx context.Context, bf *benchmarkFile, selected []*spec, o options, work string) error {
	single := len(selected) == 1 && o.repeat == 1
	sets := make([]map[string]*result, o.repeat)
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, sp := range selected {
			var res *result
			var err error
			if single {
				res, err = runWorkload(ctx, bf, sp, o, work)
			} else {
				res, err = runInChild(ctx, sp, o)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			sets[i][sp.name] = res
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			if !single {
				fmt.Printf("%s ", sp.name)
			}
			fmt.Printf("%s\n", line)
		}
	}
	failed := 0
	for _, set := range sets {
		for _, res := range set {
			failed += res.Failed
		}
	}
	var breaches []string
	if o.repeat > 1 && !o.trace {
		fmt.Fprintf(os.Stderr, "repeatability: later sets against the first\n")
		for _, sp := range selected {
			for _, m := range bf.EndToEnd {
				first := sets[0][sp.name].Metrics[m.Name].Value
				for i := 1; i < len(sets); i++ {
					w := worse(m, first, sets[i][sp.name].Metrics[m.Name].Value)
					mark := "ok"
					if w > m.Bound || -w > m.Bound {
						mark = "BREACH"
						breaches = append(breaches, sp.name+"/"+m.Name)
					}
					fmt.Fprintf(os.Stderr, "  %-16s %-16s set %d differs by %+6.1f%% (bound %.0f%%) %s\n", sp.name, m.Name, i+1, 100*w, 100*m.Bound, mark)
				}
			}
		}
	}
	// A single run reports failed operations in its result and exits 0;
	// the repeatability check is the one that fails the command.
	if failed > 0 && o.repeat > 1 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if len(breaches) > 0 {
		sort.Strings(breaches)
		return fmt.Errorf("sets differ by more than the bound: %s", strings.Join(breaches, ", "))
	}
	return nil
}

func run() error {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "stream seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per run (default run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes a Chrome trace")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny streams and one second per workload, to exercise the reporting path")
	flag.IntVar(&o.repeat, "repeat", 1, "run the set this many times; with 2 or more, compare against the bounds")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || o.repeat < 1 {
		return errors.New("usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-repeat n] [-smoke]")
	}

	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	selected := specs
	if o.workload != "all" {
		sp := specByName(o.workload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*spec{sp}
	}

	// Everything the run writes lives under .bench_build in the checkout
	// and is removed on the way out, on a signal too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o.traceDir = filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.traceDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	if len(selected) == 1 && o.repeat == 1 {
		printEnvironment(root) // otherwise each child prints its own
	}
	return runAll(ctx, bf, selected, o, work)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
