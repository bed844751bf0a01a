package main

import (
	"fmt"
	"sort"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/logtypes"
	"loglens/internal/modelmgr"
	"loglens/internal/preprocess"
	"loglens/internal/seqdetect"
)

// verdict identifies one anomaly the way the benchmark compares them:
// type, source and event ID. Everything else in a record (reason text,
// arrival stamps) may legitimately differ between two runs.
type verdict struct {
	Type, Source, Event string
}

func verdictOf(r anomaly.Record) verdict {
	return verdict{Type: r.Type.String(), Source: r.Source, Event: r.EventID}
}

// expectation is what the single-threaded reference computes for a
// stream: the exact anomaly multiset and the parsed/unparsed split.
type expectation struct {
	anomalies map[verdict]int
	parsed    int
	unparsed  int
}

func (e *expectation) anomalyCount() int {
	n := 0
	for _, c := range e.anomalies {
		n += c
	}
	return n
}

// finalHeartbeat is the log time of the one heartbeat injected per source
// after the stream has drained: far enough past the last log that every
// open event expires as missing-end.
func finalHeartbeat(st *logStream) time.Time { return st.lastLog.Add(24 * time.Hour) }

// reference runs the model's parser and sequence detector single-threaded
// over the first upto[s] lines of every source (all of them when upto is
// nil), then the final heartbeat — the same calls the pipeline's operator
// makes, without the pipeline.
func reference(m *modelmgr.Model, st *logStream, upto []int, heartbeat bool) *expectation {
	exp := &expectation{anomalies: make(map[verdict]int)}
	hb := finalHeartbeat(st)
	for s, src := range st.sources {
		lines := st.lines[s]
		if upto != nil {
			lines = lines[:upto[s]]
		}
		p := m.NewParser(preprocess.New(nil, nil))
		d := m.NewDetector(seqdetect.Config{})
		var pl logtypes.ParsedLog
		for k, raw := range lines {
			l := logtypes.Log{Source: src, Seq: uint64(k + 1), Raw: raw}
			if err := p.ParseInto(l, &pl); err != nil {
				exp.unparsed++
				exp.anomalies[verdict{Type: anomaly.UnparsedLog.String(), Source: src}]++
				continue
			}
			exp.parsed++
			for _, r := range d.Process(&pl) {
				exp.anomalies[verdictOf(r)]++
			}
		}
		if heartbeat {
			for _, r := range d.HeartbeatFor(src, hb) {
				exp.anomalies[verdictOf(r)]++
			}
		}
	}
	return exp
}

// diffVerdicts returns how many verdicts differ between what the system
// reported and the reference (missing plus unexpected), with a few
// examples for the failure message.
func diffVerdicts(got, want map[verdict]int) (int, []string) {
	var keys []verdict
	for v := range want {
		keys = append(keys, v)
	}
	for v := range got {
		if _, ok := want[v]; !ok {
			keys = append(keys, v)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Event < b.Event
	})
	diff := 0
	var examples []string
	for _, v := range keys {
		g, w := got[v], want[v]
		if g == w {
			continue
		}
		if g > w {
			diff += g - w
		} else {
			diff += w - g
		}
		if len(examples) < 5 {
			examples = append(examples, fmt.Sprintf("%s/%s/%q got %d want %d", v.Type, v.Source, v.Event, g, w))
		}
	}
	return diff, examples
}
