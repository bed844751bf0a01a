package parser

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"loglens/internal/datagen"
	"loglens/internal/datatype"
	"loglens/internal/grok"
	"loglens/internal/logmine"
	"loglens/internal/logtypes"
	"loglens/internal/preprocess"
)

// scanInto is the reference for the discrimination index: §III-B step 3
// as written, trying every candidate of the log's group in rank order.
func (p *Parser) scanInto(l logtypes.Log, pl *logtypes.ParsedLog) error {
	res := p.pp.ProcessScratch(l.Raw, &p.scratch)
	h := sigHash(res.Types)
	entry := p.lookup(h, res.Types)
	if entry == nil {
		entry = p.cacheGroup(h, res.Types, p.buildGroup(res.Types))
	}
	for _, pat := range entry.group {
		p.stats.CandidateScans++
		if fields, ok := pat.AppendMatch(pl.Fields[:0], res.Tokens); ok {
			*pl = logtypes.ParsedLog{Log: l, PatternID: pat.ID, Fields: fields, Timestamp: res.Time, HasTimestamp: res.HasTime}
			return nil
		}
	}
	return ErrNoMatch
}

// checkAgainstScan parses every line with the indexed parser and with the
// plain group scan over the same set and requires the same verdict,
// pattern and fields.
func checkAgainstScan(t *testing.T, set *grok.Set, lines []string, opts ...Option) (indexed *Parser) {
	t.Helper()
	indexed, scan := New(set, nil, opts...), New(set, nil, opts...)
	var got, want logtypes.ParsedLog
	for _, line := range lines {
		errGot, errWant := indexed.ParseInto(raw(line), &got), scan.scanInto(raw(line), &want)
		if errGot != errWant {
			t.Fatalf("%q: indexed err %v, group scan err %v", line, errGot, errWant)
		}
		if errGot != nil {
			if !errors.Is(errGot, ErrNoMatch) {
				t.Fatalf("%q: unexpected error %v", line, errGot)
			}
			continue
		}
		if got.PatternID != want.PatternID || fmt.Sprint(got.Fields) != fmt.Sprint(want.Fields) {
			t.Fatalf("%q: indexed pattern %d %v, group scan pattern %d %v",
				line, got.PatternID, got.Fields, want.PatternID, want.Fields)
		}
	}
	return indexed
}

// indexedGroups counts the live groups that carry a discrimination index,
// and those among them that also keep candidates the index cannot rule out.
func indexedGroups(p *Parser) (indexed, withRest int) {
	for _, e := range p.groups {
		for ; e != nil; e = e.next {
			if e.byLiteral != nil {
				indexed++
				if len(e.rest) > 0 {
					withRest++
				}
			}
		}
	}
	return indexed, withRest
}

// tableIVSet discovers the pattern set of one Table IV dataset the way the
// model builder does (two lines per template) and returns it with the
// lines it was trained on.
func tableIVSet(tb testing.TB, spec datagen.TableIVSpec) (*grok.Set, []string) {
	tb.Helper()
	lines := datagen.TableIVCorpus(spec, 2*float64(spec.Patterns)/float64(spec.Logs), 42).Train
	pp := preprocess.New(nil, nil)
	cl := logmine.New(logmine.Config{})
	for _, line := range lines {
		r := pp.Process(line)
		cl.Add(r.Tokens, r.Types)
	}
	set := cl.Patterns()
	if set.Len() != spec.Patterns {
		tb.Fatalf("%s: discovered %d patterns, want %d", spec.Name, set.Len(), spec.Patterns)
	}
	return set, lines
}

// mutate derives anomalous and near-miss lines: one token replaced, one
// dropped, one appended.
func mutate(rng *rand.Rand, line string) []string {
	toks := strings.Fields(line)
	i := rng.Intn(len(toks))
	replaced := append([]string(nil), toks...)
	replaced[i] = "zzz" + replaced[i]
	dropped := append(append([]string(nil), toks[:i]...), toks[i+1:]...)
	return []string{
		strings.Join(replaced, " "),
		strings.Join(dropped, " "),
		line + " extra",
	}
}

// TestIndexMatchesGroupScanTableIV: on the D3–D6 models the indexed parser
// and the plain group scan agree line for line, every corpus line parses
// (the paper's zero-anomaly sanity check), and on every dataset the index
// cuts the scans to at most two per line.
func TestIndexMatchesGroupScanTableIV(t *testing.T) {
	for _, spec := range datagen.TableIVSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			set, lines := tableIVSet(t, spec)
			p := checkAgainstScan(t, set, lines)
			s := p.Stats()
			if s.Unmatched != 0 || s.Parsed != uint64(len(lines)) {
				t.Fatalf("corpus lines unparsed: %+v", s)
			}
			if perLine := float64(s.CandidateScans) / float64(len(lines)); perLine > 2 {
				t.Errorf("CandidateScans per line = %.2f, want <= 2", perLine)
			}
			if n, _ := indexedGroups(p); n == 0 {
				t.Error("no group was indexed")
			}

			rng := rand.New(rand.NewSource(7))
			var odd []string
			for i := 0; i < 400; i++ {
				odd = append(odd, mutate(rng, lines[rng.Intn(len(lines))])...)
			}
			checkAgainstScan(t, set, odd)
		})
	}
}

// randomSet draws patterns over a small vocabulary so that signatures are
// shared by many patterns: literals repeat across patterns, any position
// may be a field in one pattern and a literal in another, a specific
// pattern often has a more general twin, and some patterns carry ANYDATA.
func randomSet(rng *rand.Rand, n int) (*grok.Set, []*grok.Pattern) {
	words := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta"}
	types := []datatype.Type{datatype.Word, datatype.Number, datatype.NotSpace, datatype.IP}
	set := grok.NewSet()
	seen := map[string]bool{}
	var pats []*grok.Pattern
	for len(pats) < n {
		var toks []grok.Token
		for i, k := 0, 3+rng.Intn(3); i < k; i++ {
			switch r := rng.Intn(10); {
			case r < 6:
				toks = append(toks, grok.LiteralToken(words[rng.Intn(len(words))]))
			case r < 9:
				toks = append(toks, grok.FieldToken(types[rng.Intn(len(types))], ""))
			default:
				toks = append(toks, grok.FieldToken(datatype.AnyData, ""))
			}
		}
		p := &grok.Pattern{Tokens: toks}
		if seen[p.String()] {
			continue
		}
		seen[p.String()] = true
		set.Add(p)
		pats = append(pats, p)
	}
	return set, pats
}

// render instantiates a pattern with conforming values.
func render(rng *rand.Rand, p *grok.Pattern) string {
	values := map[datatype.Type][]string{
		datatype.Word:     {"alpha", "beta", "omega"},
		datatype.Number:   {"42", "7"},
		datatype.NotSpace: {"x-9", "gamma", "12"},
		datatype.IP:       {"10.0.0.1"},
	}
	var toks []string
	for _, t := range p.Tokens {
		switch {
		case !t.IsField:
			toks = append(toks, t.Literal)
		case t.Type == datatype.AnyData:
			for k := rng.Intn(3); k > 0; k-- {
				toks = append(toks, values[datatype.Word][rng.Intn(3)])
			}
		default:
			vs := values[t.Type]
			toks = append(toks, vs[rng.Intn(len(vs))])
		}
	}
	return strings.Join(toks, " ")
}

// TestIndexMatchesGroupScanRandom: seeded random pattern sets and lines,
// with and without the generality sort.
func TestIndexMatchesGroupScanRandom(t *testing.T) {
	indexed, withRest := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set, pats := randomSet(rng, 60+rng.Intn(200))
		var lines []string
		for i := 0; i < 600; i++ {
			line := render(rng, pats[rng.Intn(len(pats))])
			lines = append(lines, line)
			if i%4 == 0 && line != "" {
				lines = append(lines, mutate(rng, line)...)
			}
		}
		var opts []Option
		if seed%3 == 0 {
			opts = append(opts, WithoutGroupSort())
		}
		p := checkAgainstScan(t, set, lines, opts...)
		a, b := indexedGroups(p)
		indexed, withRest = indexed+a, withRest+b
	}
	if indexed == 0 || withRest == 0 {
		t.Fatalf("fixture too weak: %d indexed groups, %d with undiscriminated candidates", indexed, withRest)
	}
}

// TestIndexKeepsMostSpecificWins: one group holding duplicate literals
// across ranks, a field at the discriminating position and a wildcard
// pattern; a more general pattern ranked after a specific one never takes
// the specific one's logs.
func TestIndexKeepsMostSpecificWins(t *testing.T) {
	set := mustSet(t,
		"svc %{ANYDATA:rest}",        // 1: wildcard, ranked last
		"svc alpha %{NOTSPACE:v}",    // 2: same literal as 4, more general
		"svc %{WORD:name} %{NUMBER}", // 3: field at the discriminating position
		"svc alpha %{NUMBER:n}",      // 4
		"svc beta %{NUMBER:n}",       // 5
		"svc gamma %{NUMBER:n}",      // 6
	)
	p := New(set, nil)
	want := map[string]int{
		"svc alpha 5":     4,
		"svc beta 5":      5,
		"svc gamma 5":     6,
		"svc delta 5":     3,
		"svc alpha x-1":   2,
		"svc delta x-1":   1,
		"svc 10.0.0.1 5":  1,
		"svc alpha 5 6 7": 1,
	}
	for line, id := range want {
		pl, err := p.Parse(raw(line))
		if err != nil || pl.PatternID != id {
			t.Errorf("%q: pattern %v err %v, want %d", line, pl, err, id)
		}
	}
	e := p.lookup(sigHash([]datatype.Type{datatype.Word, datatype.Word, datatype.Number}),
		[]datatype.Type{datatype.Word, datatype.Word, datatype.Number})
	if e == nil || e.byLiteral == nil || e.pos != 1 {
		t.Fatalf("WORD WORD NUMBER group not indexed at position 1: %+v", e)
	}
	if got := fmt.Sprint(e.byLiteral["alpha"], e.rest); got != "[0 3] [4 5]" {
		t.Errorf("alpha ranks and residual ranks = %s, want [0 3] [4 5]", got)
	}
	checkAgainstScan(t, set, []string{"svc alpha 5", "svc delta 5", "svc alpha x-1", "svc", "svc beta"})
}

// TestIndexedGroupHitZeroAllocs: the allocation budget of the group-hit
// path holds when the group is indexed, and the index leaves one match
// attempt per line.
func TestIndexedGroupHitZeroAllocs(t *testing.T) {
	set := mustSet(t,
		"%{DATETIME:ts} %{IP:ip} login %{NOTSPACE:user}",
		"%{DATETIME:ts} %{IP:ip} logout %{NOTSPACE:user}",
		"%{DATETIME:ts} %{IP:ip} renew %{NOTSPACE:user}",
		"%{DATETIME:ts} %{IP:ip} lock %{NOTSPACE:user}",
		"%{DATETIME:ts} %{IP:ip} %{WORD:verb} %{NOTSPACE:user}",
	)
	p := New(set, nil)
	l := raw("2016/02/23 09:00:31.000 127.0.0.1 lock user1")
	var pl logtypes.ParsedLog
	if err := p.ParseInto(l, &pl); err != nil {
		t.Fatal(err)
	}
	if n, _ := indexedGroups(p); n != 1 {
		t.Fatal("fixture group is not indexed")
	}
	before := p.Stats().CandidateScans
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.ParseInto(l, &pl); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("indexed group-hit ParseInto allocates %v per line, want 0", allocs)
	}
	if pl.PatternID != 4 || len(pl.Fields) != 3 {
		t.Fatalf("unexpected parse result: %+v", pl)
	}
	if scans := p.Stats().CandidateScans - before; scans != 101 {
		t.Errorf("101 lines took %d match attempts, want 101", scans)
	}
}

// TestSharedSetConcurrentGroupBuilds: four clones on their own goroutines
// miss into one model that nobody has compiled yet (run under -race).
func TestSharedSetConcurrentGroupBuilds(t *testing.T) {
	set, lines := tableIVSet(t, datagen.TableIVSpecs[2])
	base := New(set, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(p *Parser) {
			defer wg.Done()
			var pl logtypes.ParsedLog
			for _, line := range lines {
				if err := p.ParseInto(raw(line), &pl); err != nil {
					t.Errorf("%q: %v", line, err)
					return
				}
			}
			if p.Stats().GroupBuilds == 0 {
				t.Error("clone built no group")
			}
		}(base.Clone())
	}
	wg.Wait()
}

// BenchmarkGroupScanAblation is the "group scan vs discrimination index"
// row of EXPERIMENTS.md: the D4 model, group-hit path, with the index and
// with the plain rank-order scan of the same groups.
func BenchmarkGroupScanAblation(b *testing.B) {
	set, lines := tableIVSet(b, datagen.TableIVSpecs[1])
	run := func(parse func(*Parser, logtypes.Log, *logtypes.ParsedLog) error) func(*testing.B) {
		return func(b *testing.B) {
			p := New(set, nil)
			var pl logtypes.ParsedLog
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := parse(p, logtypes.Log{Raw: lines[i%len(lines)]}, &pl); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Stats().CandidateScans)/float64(b.N), "scans/line")
		}
	}
	b.Run("index", run((*Parser).ParseInto))
	b.Run("scan", run((*Parser).scanInto))
}

// BenchmarkGroupBuild is the miss path on the D4 model: a fresh parser
// (as every new source, partition clone and model swap starts) parsing one
// line of each signature, so every line builds and indexes its group.
func BenchmarkGroupBuild(b *testing.B) {
	set, lines := tableIVSet(b, datagen.TableIVSpecs[1])
	pp := preprocess.New(nil, nil)
	var firsts []logtypes.Log
	seen := map[uint64]bool{}
	for _, line := range lines {
		if h := sigHash(pp.Process(line).Types); !seen[h] {
			seen[h] = true
			firsts = append(firsts, logtypes.Log{Raw: line})
		}
	}
	var pl logtypes.ParsedLog
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(set, pp)
		for _, l := range firsts {
			if err := p.ParseInto(l, &pl); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(firsts)), "ns/group")
}
