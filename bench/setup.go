package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"loglens/internal/agent"
	"loglens/internal/datagen"
	"loglens/internal/experiments"
	"loglens/internal/modelmgr"
)

// spec describes one workload. The names are the ones BENCHMARK.json and
// every later issue use; BENCHMARK.json and README.md say why each was
// chosen.
type spec struct {
	name string
	// d4 selects the 3,234-pattern parse-heavy corpus and model; the
	// others run on D1 and its two automata.
	d4 bool
	// framed: the stream enters through the syslog front door, so its
	// payload is pre-rendered as syslog frames.
	framed bool
	// cluster: the system under test is the built binaries; set-up
	// builds them, and the reference is computed after the run over the
	// prefix that was sent.
	cluster bool
	// probeEvery is the probe density: one line in probeEvery. The paced
	// workload sends few lines, so it carries five times the probes and a
	// ten-second run holds five latency windows instead of one. The
	// cluster does not: at five times the anomalies its latency stops
	// repeating (README.md, "Departures").
	probeEvery int
	// lines is the stream size for a run measuring the given seconds.
	lines func(seconds float64) int
	run   func(ctx context.Context, pl *plan, seconds float64) (*live, error)
}

const (
	// d1RoundLines and d4RoundLines size one closed-loop round so that a
	// round takes well under a second on the reference VM and a run of
	// ten seconds holds a dozen or more of them.
	d1RoundLines = 200_000
	d4RoundLines = 100_000
	// pacedRate is the fixed input rate of the open-loop workload. With
	// every line archived in the segment store the reference VM sustains
	// about six times this, so latency here is queueing and batching
	// rather than per-line CPU.
	pacedRate = 10_000
	// clusterRate caps the cluster workload's stream a little below what
	// the broker path takes on the reference VM, so that there a run ends
	// on the cap: the same lines, anomalies and memory every time. On a
	// slower machine the run ends on time instead.
	clusterRate = 14_000
)

var specs = []*spec{
	{
		name:       "d1-seq-closed",
		probeEvery: 100,
		lines:      func(float64) int { return d1RoundLines },
		run:        runClosed,
	},
	{
		name:       "d4-parse-closed",
		probeEvery: 100,
		d4:         true,
		lines:      func(float64) int { return d4RoundLines },
		run:        runClosed,
	},
	{
		name:       "syslog-paced",
		probeEvery: 20,
		framed:     true,
		lines:      func(seconds float64) int { return int(pacedRate * seconds) },
		run:        runPaced,
	},
	{
		name:       "cluster-durable",
		cluster:    true,
		probeEvery: 100,
		lines:      func(seconds float64) int { return int(clusterRate * seconds) },
		run:        runCluster,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// plan is everything set-up produces for one run of a workload.
type plan struct {
	spec   *spec
	model  *modelmgr.Model
	stream *logStream
	// expect is the reference over the whole stream. The cluster
	// workload stops on time, not on the stream's end, and computes its
	// reference over the prefix it sent.
	expect *expectation
	// payload and headers are the stream as the in-process bus takes it;
	// the bus keeps the slices without copying and never writes to them,
	// so rounds share them.
	payload [][][]byte
	headers []map[string]string
	// work is the directory under which the run keeps its files.
	work string
	// cluster holds the built binary and model file (cluster workload).
	cluster *clusterFiles
}

// d4TrainPerTemplate is how many lines per template the D4 model is
// first trained on; more only lengthens set-up.
const d4TrainPerTemplate = 2

// setUp generates the corpus, trains the model, materialises the stream
// and runs the reference — and for the cluster workload builds the
// binaries. Its duration is setup_s.
func setUp(ctx context.Context, sp *spec, seed int64, seconds float64, work string) (*plan, error) {
	pl := &plan{spec: sp, work: work}
	perSource := sp.lines(seconds) / numSources
	if perSource < sp.probeEvery {
		return nil, fmt.Errorf("%s: %d lines per source is fewer than one probe interval", sp.name, perSource)
	}
	corpus, st, err := streamFor(sp, seed, perSource)
	if err != nil {
		return nil, err
	}
	pl.stream = st
	probes := st.total() / sp.probeEvery
	if sp.d4 {
		// Two lines per template generalise every variable slot for
		// nearly every seed; where they do not (the reference then
		// leaves corpus lines unparsed) the sample is doubled.
		for perTemplate := d4TrainPerTemplate; ; perTemplate *= 2 {
			n := perTemplate * corpus.ExpectedPatterns
			if n > len(corpus.Train) {
				return nil, fmt.Errorf("%s: no D4 training sample parses the whole corpus", sp.name)
			}
			m, _, err := modelmgr.NewBuilder(modelmgr.BuilderConfig{SkipSequence: true}).Build("d4", experiments.ToLogs("d4", corpus.Train[:n]))
			if err != nil {
				return nil, fmt.Errorf("train D4 model: %w", err)
			}
			if m.Patterns.Len() != corpus.ExpectedPatterns {
				return nil, fmt.Errorf("D4 model has %d patterns, want %d", m.Patterns.Len(), corpus.ExpectedPatterns)
			}
			pl.model, pl.expect = m, reference(m, st, nil, true)
			if pl.expect.unparsed == probes {
				break
			}
		}
	} else {
		m, _, err := modelmgr.NewBuilder(modelmgr.BuilderConfig{}).Build("d1", experiments.ToLogs("d1", corpus.Train))
		if err != nil {
			return nil, fmt.Errorf("train D1 model: %w", err)
		}
		if err := checkPaperCounts(m, corpus); err != nil {
			return nil, err
		}
		pl.model = m
	}
	if sp.cluster {
		files, err := buildCluster(ctx, pl.model, work)
		if err != nil {
			return nil, err
		}
		pl.cluster = files
		return pl, nil
	}
	if pl.expect == nil {
		pl.expect = reference(pl.model, pl.stream, nil, true)
	}
	if pl.expect.unparsed != probes {
		return nil, fmt.Errorf("%s: reference leaves %d lines unparsed, want exactly the %d probes", sp.name, pl.expect.unparsed, probes)
	}
	pl.payload = make([][][]byte, numSources)
	pl.headers = make([]map[string]string, numSources)
	for s, lines := range pl.stream.lines {
		pl.payload[s] = make([][]byte, len(lines))
		for k, l := range lines {
			if !sp.framed {
				pl.payload[s][k] = []byte(l)
				continue
			}
			if k < 2*sp.probeEvery {
				if err := checkFrame(pl.stream.sources[s], l); err != nil {
					return nil, err
				}
			}
			pl.payload[s][k] = syslogFrame(pl.stream.sources[s], l)
		}
		pl.headers[s] = map[string]string{agent.HeaderSource: pl.stream.sources[s]}
	}
	return pl, nil
}

// streamFor generates a workload's corpus and, from it, its stream: a
// pure function of the workload, the seed and the size.
func streamFor(sp *spec, seed int64, perSource int) (datagen.Corpus, *logStream, error) {
	if sp.d4 {
		corpus := datagen.TableIVCorpus(datagen.TableIVSpecs[1], 0.25, seed)
		return corpus, d4Stream(corpus, perSource, sp.probeEvery), nil
	}
	corpus := datagen.D1(seed)
	st, err := d1Stream(corpus, perSource, sp.probeEvery)
	return corpus, st, err
}

// checkPaperCounts pins the oracle to the paper: one plain cycle of the
// D1 test log holds 21 anomalous sequences, 20 of them visible without
// the final heartbeat (EXPERIMENTS.md, Figures 4 and 5).
func checkPaperCounts(m *modelmgr.Model, corpus datagen.Corpus) error {
	one := &logStream{sources: []string{"d1"}, lines: [][]string{corpus.Test}, lastLog: corpus.Truth.LastLogTime}
	with := reference(m, one, nil, true).anomalyCount()
	without := reference(m, one, nil, false).anomalyCount()
	if with != corpus.Truth.TotalAnomalies || without != corpus.Truth.TotalAnomalies-corpus.Truth.MissingEnd {
		return fmt.Errorf("reference finds %d/%d anomalies on one D1 cycle with/without heartbeat, paper has %d/%d",
			with, without, corpus.Truth.TotalAnomalies, corpus.Truth.TotalAnomalies-corpus.Truth.MissingEnd)
	}
	return nil
}

// setupRepeats is how many times a run sets up; setup_s is their median,
// so one cold build cache or page cache does not decide it.
const setupRepeats = 3

// timedSetUp sets up setupRepeats times and returns the last plan with
// every duration.
func timedSetUp(ctx context.Context, sp *spec, seed int64, seconds float64, work string, repeats int) (*plan, []float64, error) {
	var pl *plan
	var took []float64
	for i := 0; i < repeats; i++ {
		if pl != nil && pl.cluster != nil {
			os.RemoveAll(pl.cluster.dir)
		}
		begin := time.Now()
		next, err := setUp(ctx, sp, seed, seconds, work)
		if err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(begin).Seconds())
		pl = next
	}
	return pl, took, nil
}
