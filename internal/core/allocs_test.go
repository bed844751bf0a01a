package core

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"loglens/internal/agent"
	"loglens/internal/datagen"
	"loglens/internal/experiments"
	"loglens/internal/modelmgr"
)

// allocLines is how many lines each partition count streams: one D1
// test log, enough that per-run set-up (partition workers, per-source
// states) amortizes to a small fraction of an allocation per line.
const allocLines = 16_000

// TestPipelineAllocsPerLine holds the whole production path — bus
// publish, log manager, streaming engine, parser, sequence detector,
// anomaly storage — to its allocation budget per line. The count is the
// process's mallocs from after Start through Drain over the lines
// published, truncated as testing.AllocsPerRun truncates. One source per
// partition spreads the lines over every partition, and each source
// sees the D1 test log in order, so its event traces stay whole and
// anomalies stay as rare as in the paper's run.
func TestPipelineAllocsPerLine(t *testing.T) {
	d1 := datagen.D1(42)
	m, _, err := modelmgr.NewBuilder(modelmgr.BuilderConfig{}).Build("d1", experiments.ToLogs("d1", d1.Train))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		partitions int
		budget     uint64
	}{
		{"p1", 1, 5},
		{"p4", 4, 11},
		{"p8", 8, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := pipelineAllocsPerLine(t, m, d1.Test, c.partitions); got > c.budget {
				t.Fatalf("%d allocs per line, budget %d", got, c.budget)
			}
		})
	}
}

func pipelineAllocsPerLine(t *testing.T, m *modelmgr.Model, lines []string, partitions int) uint64 {
	p, err := New(Config{
		Partitions:       partitions,
		BatchInterval:    time.Millisecond,
		DisableHeartbeat: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.InstallModel(m)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	sources := make([]string, partitions)
	headers := make([]map[string]string, partitions)
	for i := range sources {
		sources[i] = "d1-" + strconv.Itoa(i)
		headers[i] = map[string]string{agent.HeaderSource: sources[i]}
	}
	b := p.Bus()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocLines; i++ {
		s := i % partitions
		b.Publish(agent.LogsTopic, sources[s], []byte(lines[(i/partitions)%len(lines)]), headers[s])
	}
	if err := p.Drain(time.Minute); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / allocLines
}
