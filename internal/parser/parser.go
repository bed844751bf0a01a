// Package parser implements the LogLens stateless log parser (§III-B):
// logs are parsed against the discovered GROK pattern set via a
// log-signature index that reduces per-log cost from O(m) pattern scans to
// amortized O(1) group lookups. Logs that no pattern parses are stateless
// anomalies.
//
// The parser proceeds in the paper's three steps: (1) compute the log's
// signature (concatenated token datatypes) and look up its
// candidate-pattern-group; (2) on a miss, build the group by matching the
// log-signature against every pattern-signature that could parse a log of
// that length with the dynamic programming of Algorithm 1
// (wildcard-aware), sorting candidates in ascending datatype generality
// and length; (3) scan the group's patterns until one parses the log.
//
// On large models a signature is shared by hundreds of patterns that
// differ only in a literal, so each group also carries a discrimination
// index, built with the group: the scan of step 3 visits only the
// candidates whose literal at one chosen token position equals the log's
// token there, plus those that have no literal there, still in the
// group's order — the first match is the one the full scan would find.
package parser

import (
	"errors"
	"sort"

	"loglens/internal/datatype"
	"loglens/internal/grok"
	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/preprocess"
)

// ErrNoMatch reports that no pattern parses the log: the log is a
// stateless anomaly (§III-B step 3).
var ErrNoMatch = errors.New("parser: log matches no pattern")

// Stats counts parser work for the evaluation harness.
type Stats struct {
	// Parsed counts successfully parsed logs.
	Parsed uint64
	// Unmatched counts anomalies (ErrNoMatch).
	Unmatched uint64
	// GroupHits counts logs whose signature hit an existing group.
	GroupHits uint64
	// GroupBuilds counts candidate-pattern-group constructions (cache
	// misses, each costing one Algorithm-1 pass over all patterns).
	GroupBuilds uint64
	// GroupEvictions counts group-index entries evicted at the cap.
	GroupEvictions uint64
	// CandidateScans counts pattern-match attempts inside groups:
	// candidates the discrimination index rules out are never attempted
	// and are not counted.
	CandidateScans uint64
}

// DefaultMaxGroups caps the candidate-pattern-group index size. Anomalous
// traffic can mint unbounded fresh signatures (every unparsed log shape
// caches an empty group), so the index evicts its oldest entries beyond
// the cap rather than growing without bound.
const DefaultMaxGroups = 65536

// Parser is the stateless anomaly detector. It is NOT safe for concurrent
// use (the group index and preprocessor caches mutate on every Parse);
// create one per goroutine with Clone.
type Parser struct {
	set *grok.Set
	pp  *preprocess.Preprocessor

	// groups is the candidate-pattern-group index, keyed by an FNV-1a
	// hash of the log-signature type sequence. Hash collisions chain;
	// each entry carries an owned copy of its type sequence so lookups
	// verify the signature instead of trusting the hash. Hash keys keep
	// the group-hit path free of per-line signature-string allocations.
	groups map[uint64]*groupEntry
	// order is the FIFO eviction ring: insertion-ordered signature
	// hashes with the live window at order[head:]. Eviction advances
	// head (O(evicted)); the dead prefix is compacted away only once it
	// exceeds half the slice, keeping compaction amortized O(1).
	order []uint64
	head  int
	// count tracks live signatures (map entries undercount when chains
	// form).
	count int

	maxGroups int
	sortOff   bool
	stats     Stats
	// perPat holds the per-pattern parse counts of groups no longer in the
	// index (evicted, dropped by SetPatterns, restored from a checkpoint);
	// live groups count in their own hits slots, off the map.
	perPat map[int]uint64
	instr  *parserInstr

	// Per-goroutine hot-path scratch, reused across Parse calls.
	scratch preprocess.Scratch
	dpPrev  []bool
	dpCur   []bool
}

// groupEntry is one signature's candidate-pattern-group, chained on hash
// collision. types is an owned copy (the lookup key aliases per-line
// scratch); new entries append at the chain tail so FIFO eviction pops
// the oldest node first.
type groupEntry struct {
	types []datatype.Type
	// group is the candidates in scan order; a candidate's position in it
	// is its rank. hits counts the logs each rank has parsed.
	group []*grok.Pattern
	hits  []uint64

	// The discrimination index. byLiteral maps each literal the
	// wildcard-free candidates carry at token position pos to their ranks;
	// rest lists the ranks of every other candidate (a field at pos, or an
	// ANYDATA pattern, whose tokens do not align with the log's). Both are
	// ascending, so merging the two visits, in scan order, exactly the
	// candidates that can still match. A group with nothing to
	// discriminate has a nil byLiteral and every rank in rest: the merge
	// is then the plain scan.
	pos       int
	byLiteral map[string][]int32
	rest      []int32

	next *groupEntry
}

// minIndexedGroup is the smallest group that gets a discrimination index:
// below it the hash of the lookup costs as much as the failed literal
// compares it saves.
const minIndexedGroup = 4

// newGroupEntry wraps a sorted group, choosing as the discriminating
// position the first one at which the wildcard-free candidates (all of the
// log's length, so positions align) carry the most distinct literals.
func newGroupEntry(types []datatype.Type, group []*grok.Pattern) *groupEntry {
	e := &groupEntry{
		types: append([]datatype.Type(nil), types...),
		group: group,
		hits:  make([]uint64, len(group)),
	}
	aligned := 0
	for _, pat := range group {
		if !pat.HasAnyData() {
			aligned++
		}
	}
	best := 1
	if len(group) >= minIndexedGroup {
		seen := make(map[string]struct{}, aligned)
		for pos := 0; pos < len(types) && best < aligned; pos++ {
			clear(seen)
			for _, pat := range group {
				if pat.HasAnyData() {
					continue
				}
				if t := &pat.Tokens[pos]; !t.IsField {
					seen[t.Literal] = struct{}{}
				}
			}
			if len(seen) > best {
				best, e.pos = len(seen), pos
			}
		}
	}
	if best > 1 {
		e.byLiteral = make(map[string][]int32, best)
	}
	for rank, pat := range group {
		if e.byLiteral != nil && !pat.HasAnyData() {
			if t := &pat.Tokens[e.pos]; !t.IsField {
				e.byLiteral[t.Literal] = append(e.byLiteral[t.Literal], int32(rank))
				continue
			}
		}
		e.rest = append(e.rest, int32(rank))
	}
	return e
}

// fnv1aOffset and fnv1aPrime are the 64-bit FNV-1a parameters.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

// sigHash is the FNV-1a hash of a log-signature type sequence.
func sigHash(types []datatype.Type) uint64 {
	h := uint64(fnv1aOffset)
	for _, t := range types {
		h ^= uint64(t)
		h *= fnv1aPrime
	}
	return h
}

func typesEqual(a, b []datatype.Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parserInstr mirrors the per-Parse counters into a shared registry.
// Clones share the same handles: clones are the per-partition copies of
// one logical parser, so their registry counters aggregate. The handles
// are atomics every partition contends on, so ParseInto adds to them once
// per line, never once per candidate.
type parserInstr struct {
	parsed    *metrics.Counter
	unmatched *metrics.Counter
	hits      *metrics.Counter
	builds    *metrics.Counter
	evictions *metrics.Counter
	scans     *metrics.Counter
}

// Option configures a Parser.
type Option func(*Parser)

// WithMaxGroups overrides the group-index cap (0 = unlimited).
func WithMaxGroups(n int) Option {
	return func(p *Parser) { p.maxGroups = n }
}

// WithoutGroupSort disables the ascending-generality candidate ordering —
// ablation only: groups are scanned in pattern-ID order, so a more general
// pattern can shadow a specific one.
func WithoutGroupSort() Option {
	return func(p *Parser) { p.sortOff = true }
}

// New constructs a Parser over the given pattern set. A nil preprocessor
// selects the defaults.
func New(set *grok.Set, pp *preprocess.Preprocessor, opts ...Option) *Parser {
	if pp == nil {
		pp = preprocess.New(nil, nil)
	}
	p := &Parser{
		set:       set,
		pp:        pp,
		groups:    make(map[uint64]*groupEntry),
		maxGroups: DefaultMaxGroups,
		perPat:    make(map[int]uint64),
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Clone returns an independent Parser sharing the (read-only) pattern set
// but with its own group index and preprocessor caches. Registry
// instruments are shared, aggregating across clones.
func (p *Parser) Clone() *Parser {
	c := New(p.set, p.pp.Clone())
	c.maxGroups = p.maxGroups
	c.sortOff = p.sortOff
	c.instr = p.instr
	return c
}

// Instrument mirrors the parser's work counters into reg under the
// parser_* names (signature-index hits/misses, candidate scans, parse
// verdicts). Counter increments are atomic, so clones sharing the handles
// may run in different partitions.
func (p *Parser) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p.instr = &parserInstr{
		parsed:    reg.Counter("parser_parsed_total"),
		unmatched: reg.Counter("parser_unparsed_total"),
		hits:      reg.Counter("parser_group_hits_total"),
		builds:    reg.Counter("parser_group_builds_total"),
		evictions: reg.Counter("parser_group_evictions_total"),
		scans:     reg.Counter("parser_candidate_scans_total"),
	}
}

// SetPatterns swaps in a new pattern set (a model update) and drops the
// group index, which is rebuilt lazily against the new model; the dropped
// groups' parse counts move to perPat.
func (p *Parser) SetPatterns(set *grok.Set) {
	p.eachGroup(func(e *groupEntry) { e.addHits(p.perPat) })
	p.set = set
	p.groups = make(map[uint64]*groupEntry)
	p.order = p.order[:0]
	p.head = 0
	p.count = 0
}

// Patterns returns the active pattern set.
func (p *Parser) Patterns() *grok.Set { return p.set }

// Stats returns a snapshot of the work counters.
func (p *Parser) Stats() Stats { return p.stats }

// PatternCounts returns how many logs each pattern has parsed — the model
// reviewer's view of which patterns carry traffic (and which are dead).
func (p *Parser) PatternCounts() map[int]uint64 {
	out := make(map[int]uint64, len(p.perPat))
	for id, n := range p.perPat {
		out[id] = n
	}
	p.eachGroup(func(e *groupEntry) { e.addHits(out) })
	return out
}

// eachGroup visits every live group, collision chains included.
func (p *Parser) eachGroup(fn func(*groupEntry)) {
	for _, e := range p.groups {
		for ; e != nil; e = e.next {
			fn(e)
		}
	}
}

// addHits adds the group's per-candidate parse counts to a per-pattern
// map.
func (e *groupEntry) addHits(counts map[int]uint64) {
	for rank, n := range e.hits {
		if n > 0 {
			counts[e.group[rank].ID] += n
		}
	}
}

// ResetStats zeroes the work counters.
func (p *Parser) ResetStats() { p.stats = Stats{} }

// Parse parses one log. On success it returns the structured form; if no
// pattern matches it returns ErrNoMatch and the caller reports the log as
// an anomaly.
func (p *Parser) Parse(l logtypes.Log) (*logtypes.ParsedLog, error) {
	pl := &logtypes.ParsedLog{}
	if err := p.ParseInto(l, pl); err != nil {
		return nil, err
	}
	return pl, nil
}

// ParseInto is Parse writing the structured form into a caller-owned
// ParsedLog, reusing its Fields buffer. A caller cycling one ParsedLog
// per goroutine pays zero allocations on the group-hit path (the field
// values alias the immutable raw line, so they stay valid after reuse).
// On ErrNoMatch *pl is left in an unspecified state.
func (p *Parser) ParseInto(l logtypes.Log, pl *logtypes.ParsedLog) error {
	res := p.pp.ProcessScratch(l.Raw, &p.scratch)
	h := sigHash(res.Types)

	entry := p.lookup(h, res.Types)
	hit := entry != nil
	if hit {
		p.stats.GroupHits++
	} else {
		entry = p.cacheGroup(h, res.Types, p.buildGroup(res.Types))
		p.stats.GroupBuilds++
	}

	// §III-B step 3, narrowed by the discrimination index: merge the ranks
	// filed under the log's token at the discriminating position with the
	// ranks the index cannot rule out, ascending, and stop at the first
	// candidate that parses the log.
	var byLiteral []int32
	if entry.byLiteral != nil {
		byLiteral = entry.byLiteral[res.Tokens[entry.pos]]
	}
	rest := entry.rest
	var scans uint64
	matched := int32(-1)
	var fields []logtypes.Field
	for matched < 0 && (len(byLiteral) > 0 || len(rest) > 0) {
		var rank int32
		if len(rest) == 0 || (len(byLiteral) > 0 && byLiteral[0] < rest[0]) {
			rank, byLiteral = byLiteral[0], byLiteral[1:]
		} else {
			rank, rest = rest[0], rest[1:]
		}
		scans++
		var ok bool
		if fields, ok = entry.group[rank].AppendMatch(pl.Fields[:0], res.Tokens); ok {
			matched = rank
		}
	}
	p.stats.CandidateScans += scans
	if p.instr != nil {
		p.instr.line(hit, scans, matched >= 0)
	}

	if matched < 0 {
		p.stats.Unmatched++
		return ErrNoMatch
	}
	p.stats.Parsed++
	entry.hits[matched]++
	*pl = logtypes.ParsedLog{
		Log:          l,
		PatternID:    entry.group[matched].ID,
		Fields:       fields,
		Timestamp:    res.Time,
		HasTimestamp: res.HasTime,
	}
	return nil
}

// line publishes one ParseInto's counts.
func (in *parserInstr) line(hit bool, scans uint64, parsed bool) {
	if hit {
		in.hits.Inc()
	} else {
		in.builds.Inc()
	}
	if scans > 0 {
		in.scans.Add(scans)
	}
	if parsed {
		in.parsed.Inc()
	} else {
		in.unmatched.Inc()
	}
}

// lookup walks the hash bucket's collision chain, verifying the type
// sequence of each entry.
func (p *Parser) lookup(h uint64, types []datatype.Type) *groupEntry {
	for e := p.groups[h]; e != nil; e = e.next {
		if typesEqual(e.types, types) {
			return e
		}
	}
	return nil
}

// buildGroup assembles the candidate-pattern-group for a log-signature:
// all patterns whose pattern-signature can parse it (Algorithm 1), sorted
// in ascending datatype generality then token count, so the most specific
// pattern is tried first; ties keep pattern-ID order. Only patterns that
// can parse a log of this length are visited.
func (p *Parser) buildGroup(logSig []datatype.Type) []*grok.Pattern {
	exact, wild := p.set.Candidates(len(logSig))
	var group []*grok.Pattern
	for _, pat := range exact {
		if isMatchedExact(logSig, pat.SignatureTypes()) {
			group = append(group, pat)
		}
	}
	for _, pat := range wild {
		if p.isMatched(logSig, pat.SignatureTypes()) {
			group = append(group, pat)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		a, b := group[i], group[j]
		if !p.sortOff {
			if ga, gb := a.Generality(), b.Generality(); ga != gb {
				return ga < gb
			}
			if len(a.Tokens) != len(b.Tokens) {
				return len(a.Tokens) < len(b.Tokens)
			}
		}
		return a.ID < b.ID
	})
	return group
}

// cacheGroup stores a group under its signature hash, evicting the
// oldest entries beyond the cap. The just-inserted entry is returned and
// can never be part of the eviction wave (eviction runs first).
func (p *Parser) cacheGroup(h uint64, types []datatype.Type, group []*grok.Pattern) *groupEntry {
	if p.maxGroups > 0 && p.count >= p.maxGroups {
		wave := p.count / 4
		if wave < 1 {
			wave = 1
		}
		for i := 0; i < wave && p.head < len(p.order); i++ {
			old := p.order[p.head]
			p.head++
			if e := p.groups[old]; e != nil {
				e.addHits(p.perPat)
				if e.next != nil {
					p.groups[old] = e.next
				} else {
					delete(p.groups, old)
				}
			}
			p.count--
			p.stats.GroupEvictions++
			if p.instr != nil {
				p.instr.evictions.Inc()
			}
		}
		if p.head > len(p.order)/2 {
			n := copy(p.order, p.order[p.head:])
			p.order = p.order[:n]
			p.head = 0
		}
	}
	e := newGroupEntry(types, group)
	if head := p.groups[h]; head != nil {
		tail := head
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = e
	} else {
		p.groups[h] = e
	}
	p.order = append(p.order, h)
	p.count++
	return e
}

// isMatched is IsMatched using the Parser's reusable DP rows, so group
// builds allocate nothing beyond the group slice itself.
func (p *Parser) isMatched(logSig, patSig []datatype.Type) bool {
	if !sigHasAnyData(patSig) {
		return isMatchedExact(logSig, patSig)
	}
	need := len(patSig) + 1
	if cap(p.dpPrev) < need {
		p.dpPrev = make([]bool, need)
		p.dpCur = make([]bool, need)
	}
	return isMatchedDP(logSig, patSig, p.dpPrev[:need], p.dpCur[:need])
}

// IsMatched is Algorithm 1: whether a log-signature can be parsed by a
// pattern-signature, where ANYDATA in the pattern-signature may absorb any
// number of log tokens and coverage follows the datatype lattice
// (isCovered(l, p) is true when p's RegEx language includes l's).
func IsMatched(logSig, patSig []datatype.Type) bool {
	if !sigHasAnyData(patSig) {
		return isMatchedExact(logSig, patSig)
	}
	s := len(patSig)
	return isMatchedDP(logSig, patSig, make([]bool, s+1), make([]bool, s+1))
}

func sigHasAnyData(patSig []datatype.Type) bool {
	for _, t := range patSig {
		if t == datatype.AnyData {
			return true
		}
	}
	return false
}

// isMatchedExact is the no-wildcard fast path: positions align one to
// one.
func isMatchedExact(logSig, patSig []datatype.Type) bool {
	if len(logSig) != len(patSig) {
		return false
	}
	for i := range logSig {
		if logSig[i] != patSig[i] && !datatype.Covers(patSig[i], logSig[i]) {
			return false
		}
	}
	return true
}

// isMatchedDP is the wildcard case: T[i][j] = log prefix i parsed by
// pattern prefix j. Two rolling rows keep it O(r*s) time, O(s) space.
// prev and cur must be len(patSig)+1; their contents are overwritten.
func isMatchedDP(logSig, patSig []datatype.Type, prev, cur []bool) bool {
	r, s := len(logSig), len(patSig)
	prev[0] = true
	for j := 1; j <= s; j++ {
		prev[j] = prev[j-1] && patSig[j-1] == datatype.AnyData
	}
	for i := 1; i <= r; i++ {
		cur[0] = false
		for j := 1; j <= s; j++ {
			pj := patSig[j-1]
			switch {
			case pj == datatype.AnyData:
				cur[j] = cur[j-1] || prev[j]
			case logSig[i-1] == pj || datatype.Covers(pj, logSig[i-1]):
				cur[j] = prev[j-1]
			default:
				cur[j] = false
			}
		}
		prev, cur = cur, prev
	}
	return prev[s]
}
