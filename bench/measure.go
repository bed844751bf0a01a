package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// segment is one measured slice of a run — a closed-loop round or a
// fixed-length piece of a timed run. Rate and CPU metrics are the median
// over a run's segments.
type segment struct {
	lines int           // lines that received a verdict in the segment
	wall  time.Duration // its length
	cpu   time.Duration // user+sys CPU of the system under test over it
}

// probeWindow is the least number of consecutive probe verdicts that make
// one latency sample: enough for a 99th percentile with ten verdicts
// beyond it.
const probeWindow = 1000

// live is what one untraced execution of a workload yields.
type live struct {
	segments []segment
	// latenciesMs are the send→verdict times of the run's probes in the
	// order their verdicts arrived.
	latenciesMs []float64
	queriesMs   []float64
	peakRSSMB   float64
	attempted   int
	failed      int
	failures    []string // why operations failed, for the report
	// extra carries the per-layer figures only a live run can give
	// (lag, shed, generator lateness).
	extra map[string]float64
}

func (l *live) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	l.failed += n
	if len(l.failures) < 10 {
		l.failures = append(l.failures, fmt.Sprintf("%d: ", n)+fmt.Sprintf(format, args...))
	}
}

// endToEnd folds the run into the end-to-end metrics of BENCHMARK.json
// (all but setup_s, which the caller owns). Latency is taken over
// consecutive windows of at least probeWindow verdicts: the median of the
// windows' medians and of their 99th percentiles, so one stall moves one
// window, not the figure. A run with less than one window pools its probes and
// reports the highest percentile they support, at most the 99th.
func (l *live) endToEnd() map[string]summary {
	var rate, cpu, p50, p99 []float64
	for _, s := range l.segments {
		if s.lines == 0 || s.wall <= 0 {
			continue
		}
		rate = append(rate, float64(s.lines)/s.wall.Seconds())
		cpu = append(cpu, float64(s.cpu.Microseconds())/float64(s.lines))
	}
	// As many equal windows as hold probeWindow verdicts each, so no
	// verdict is left out.
	if k := len(l.latenciesMs) / probeWindow; k > 0 {
		size := len(l.latenciesMs) / k
		for w := 0; w < k; w++ {
			lat := l.latenciesMs[w*size : (w+1)*size]
			p50 = append(p50, median(lat))
			p99 = append(p99, quantile(lat, 0.99))
		}
	}
	if len(p99) == 0 && len(l.latenciesMs) > 0 {
		tail, _ := tailQuantile(l.latenciesMs)
		p50, p99 = []float64{median(l.latenciesMs)}, []float64{tail}
	}
	return map[string]summary{
		"lines_per_s":     summarize(rate),
		"cpu_us_per_line": summarize(cpu),
		"verdict_p50_ms":  summarize(p50),
		"verdict_p99_ms":  summarize(p99),
		"query_p50_ms":    summarize(l.queriesMs),
		"peak_rss_mb":     {Median: l.peakRSSMB, Q1: l.peakRSSMB, Q3: l.peakRSSMB, N: 1},
	}
}

// selfCPU is the user+sys CPU this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the unit of the CPU fields of /proc/<pid>/stat. It is a
// kernel ABI constant on Linux, not the kernel's own tick rate.
const userHZ = 100

// procCPU is the user+sys CPU of another process, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// peakRSSMB reads VmHWM of a process ("self" for this one) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// probeBook matches probe verdicts back to their send times. Send times
// are written by the generator before the line leaves it and read by
// whatever observes the verdict.
type probeBook struct {
	start  time.Time
	sentNs []atomic.Int64 // by serial, ns since start; 0 = not sent

	mu      sync.Mutex
	arrived []float64 // latencies in ms, in arrival order
	seen    map[int]bool
	stray   int // verdicts for probes never sent or seen twice
}

func newProbeBook(serials int, start time.Time) *probeBook {
	return &probeBook{start: start, sentNs: make([]atomic.Int64, serials), seen: make(map[int]bool)}
}

// sent records that probe serial is due to leave the generator at t.
func (b *probeBook) sent(serial int, t time.Time) {
	ns := int64(t.Sub(b.start))
	if ns == 0 {
		ns = 1
	}
	b.sentNs[serial].Store(ns)
}

// verdict records the arrival of probe serial's verdict at t.
func (b *probeBook) verdict(serial int, t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if serial < 0 || serial >= len(b.sentNs) || b.seen[serial] {
		b.stray++
		return
	}
	sent := b.sentNs[serial].Load()
	if sent == 0 {
		b.stray++
		return
	}
	b.seen[serial] = true
	b.arrived = append(b.arrived, float64(int64(t.Sub(b.start))-sent)/1e6)
}

// sentCount is how many probes have left the generator.
func (b *probeBook) sentCount() int {
	n := 0
	for i := range b.sentNs {
		if b.sentNs[i].Load() != 0 {
			n++
		}
	}
	return n
}

// lost counts probes that were sent and never got a verdict.
func (b *probeBook) lost() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for i := range b.sentNs {
		if b.sentNs[i].Load() != 0 && !b.seen[i] {
			n++
		}
	}
	return n
}

// latencies returns the send→verdict times in ms, in arrival order.
func (b *probeBook) latencies() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.arrived...)
}

// startQueries calls query at once and then every queryEvery in the
// background. The returned function stops it and yields each successful
// call's latency in ms and how many calls failed.
func startQueries(query func() error) (stop func() (ms []float64, failed int)) {
	done := make(chan struct{})
	finished := make(chan struct{})
	var ms []float64
	failed := 0
	go func() {
		defer close(finished)
		t := time.NewTicker(queryEvery)
		defer t.Stop()
		for {
			begin := time.Now()
			if err := query(); err != nil {
				failed++
			} else {
				ms = append(ms, float64(time.Since(begin))/1e6)
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() ([]float64, int) {
		close(done)
		<-finished
		return ms, failed
	}
}
