package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"loglens/internal/datagen"
)

const (
	// numSources is fixed, not nproc, so that a (workload, seed) pair
	// names the same stream on every machine; the generator spreads the
	// sources over at most nproc goroutines or connections.
	numSources = 4
)

// logStream is the complete input of one workload: per-source line
// sequences (order within a source is the order the system must see).
// It is a pure function of (workload, seed, size).
type logStream struct {
	sources []string
	lines   [][]string
	// probeEvery: every probeEvery-th line of each source is a probe, an
	// unparseable line carrying a serial, so each one yields exactly one
	// unparsed-log verdict that can be matched back to its send time.
	probeEvery int
	// lastLog is the latest embedded timestamp; the final heartbeat is
	// injected a day after it so every open event expires.
	lastLog time.Time
}

func (s *logStream) total() int {
	n := 0
	for _, ls := range s.lines {
		n += len(ls)
	}
	return n
}

// hash identifies the stream byte for byte.
func (s *logStream) hash() string {
	h := sha256.New()
	for i, src := range s.sources {
		fmt.Fprintf(h, "%s\x00%d\x00", src, len(s.lines[i]))
		for _, l := range s.lines[i] {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sourceNames() []string {
	out := make([]string, numSources)
	for i := range out {
		out[i] = "src-" + strconv.Itoa(i)
	}
	return out
}

const probePrefix = "benchprobe serial "

// probeLine renders probe number serial. It has no timestamp and a shape
// no D1 or D4 pattern has, so the parser reports it as unparsed-log.
func probeLine(serial int) string { return probePrefix + strconv.Itoa(serial) }

// parseProbe is probeLine's inverse.
func parseProbe(raw string) (int, bool) {
	if !strings.HasPrefix(raw, probePrefix) {
		return 0, false
	}
	n, err := strconv.Atoi(raw[len(probePrefix):])
	return n, err == nil && n >= 0
}

// isProbe reports whether position k of a source holds a probe.
func (s *logStream) isProbe(k int) bool { return k%s.probeEvery == s.probeEvery-1 }

// probeSerial numbers the probe at position k of source src; serials are
// unique across the stream.
func (s *logStream) probeSerial(src, k int) int { return (k/s.probeEvery)*numSources + src }

// nthProbe is the position of a source's n-th probe, counting from zero.
func (s *logStream) nthProbe(n int) int { return (n+1)*s.probeEvery - 1 }

// probeSerials is the size of the probe serial space.
func (s *logStream) probeSerials() int { return (len(s.lines[0])/s.probeEvery + 1) * numSources }

// weave builds the stream: every source carries perSource lines, every
// probeEvery-th one a probe and the rest next(src) in order.
func weave(perSource, probeEvery int, next func(src int) string) *logStream {
	st := &logStream{sources: sourceNames(), probeEvery: probeEvery, lines: make([][]string, numSources)}
	for src := range st.lines {
		ls := make([]string, perSource)
		for k := range ls {
			if st.isProbe(k) {
				ls[k] = probeLine(st.probeSerial(src, k))
			} else {
				ls[k] = next(src)
			}
		}
		st.lines[src] = ls
	}
	return st
}

const d1TimeLayout = "2006/01/02 15:04:05.000"

var d1EventID = regexp.MustCompile(`\b(?:jb|vl)-(\d{6})\b`)

// d1Line is one line of the D1 test corpus taken apart so it can be
// re-rendered for a later cycle.
type d1Line struct {
	t          time.Time
	head, tail string // around the event number; tail empty for filler lines
	id         int    // event number, -1 for filler lines
}

// d1IDStride separates the event numbers of consecutive cycles; D1 uses
// fewer than 20,000 of them.
const d1IDStride = 100000

// d1Cycler replays the D1 test corpus as one continuous log: each cycle
// shifts the timestamps by the corpus span and renumbers the event IDs,
// so traces never collide across cycles and every cycle holds the
// corpus's 21 anomalous sequences.
type d1Cycler struct {
	lines []d1Line
	span  time.Duration
	pos   int
	cycle int
	last  time.Time
}

func newD1Cycler(test []string) (*d1Cycler, error) {
	c := &d1Cycler{}
	var first, last time.Time
	for i, raw := range test {
		if len(raw) < len(d1TimeLayout) {
			return nil, fmt.Errorf("D1 line %d too short: %q", i, raw)
		}
		t, err := time.Parse(d1TimeLayout, raw[:len(d1TimeLayout)])
		if err != nil {
			return nil, fmt.Errorf("D1 line %d: %w", i, err)
		}
		rest := raw[len(d1TimeLayout):]
		l := d1Line{t: t, head: rest, id: -1}
		if m := d1EventID.FindStringSubmatchIndex(rest); m != nil {
			l.id, _ = strconv.Atoi(rest[m[2]:m[3]])
			l.head, l.tail = rest[:m[2]], rest[m[3]:]
		}
		c.lines = append(c.lines, l)
		if i == 0 || t.Before(first) {
			first = t
		}
		if t.After(last) {
			last = t
		}
	}
	if len(c.lines) == 0 {
		return nil, fmt.Errorf("empty D1 corpus")
	}
	// A whole number of hours past the corpus span, so the last traces
	// of one cycle are long closed before the next cycle's begin.
	c.span = last.Sub(first).Truncate(time.Hour) + 2*time.Hour
	return c, nil
}

func (c *d1Cycler) next() string {
	l, cycle := c.lines[c.pos], c.cycle
	c.pos++
	if c.pos == len(c.lines) {
		c.pos, c.cycle = 0, c.cycle+1
	}
	t := l.t.Add(time.Duration(cycle) * c.span)
	if t.After(c.last) {
		c.last = t
	}
	if l.id < 0 {
		return t.Format(d1TimeLayout) + l.head
	}
	return t.Format(d1TimeLayout) + l.head + fmt.Sprintf("%06d", l.id+cycle*d1IDStride) + l.tail
}

// d1Stream is the stream of the D1-based workloads: every source carries
// the cycled D1 test log with probes woven in.
func d1Stream(corpus datagen.Corpus, perSource, probeEvery int) (*logStream, error) {
	parsed, err := newD1Cycler(corpus.Test)
	if err != nil {
		return nil, err
	}
	cyclers := make([]*d1Cycler, numSources)
	for s := range cyclers {
		cyclers[s] = &d1Cycler{lines: parsed.lines, span: parsed.span}
	}
	st := weave(perSource, probeEvery, func(s int) string { return cyclers[s].next() })
	for _, c := range cyclers {
		if c.last.After(st.lastLog) {
			st.lastLog = c.last
		}
	}
	return st, nil
}

// d4Stream cycles the D4 parsing corpus (3,234 templates emitted round
// robin) with probes woven in. The model has no sequence part, so the
// timestamps need no shifting. Source s starts s quarters into the
// corpus so the sources do not move in lock step.
func d4Stream(corpus datagen.Corpus, perSource, probeEvery int) *logStream {
	pos := make([]int, numSources)
	for s := range pos {
		pos[s] = s * len(corpus.Test) / numSources
	}
	return weave(perSource, probeEvery, func(s int) string {
		l := corpus.Test[pos[s]%len(corpus.Test)]
		pos[s]++
		return l
	})
}
