package parser

import (
	"fmt"
	"strings"
	"testing"

	"loglens/internal/datatype"
	"loglens/internal/logtypes"
)

// distinctSigLine builds a log line whose signature is unique per i (the
// token count varies), minting fresh group-index entries on demand.
func distinctSigLine(i int) string {
	return "junk" + strings.Repeat(" tok", i+1)
}

// TestEvictionRingFIFO: the eviction wave removes exactly the oldest
// signatures, and a just-inserted signature is never evicted — the
// insert happens after the wave, so re-parsing the newest line must hit.
func TestEvictionRingFIFO(t *testing.T) {
	set := mustSet(t, "stable %{NUMBER:n}")
	p := New(set, nil, WithMaxGroups(4))
	for i := 0; i < 4; i++ {
		p.Parse(raw(distinctSigLine(i)))
	}
	if p.Stats().GroupEvictions != 0 {
		t.Fatalf("evicted below the cap: %+v", p.Stats())
	}

	// The 5th insert evicts a wave of count/4 = 1: only the oldest.
	p.Parse(raw(distinctSigLine(4)))
	s := p.Stats()
	if s.GroupEvictions != 1 {
		t.Fatalf("GroupEvictions = %d, want 1", s.GroupEvictions)
	}
	builds := s.GroupBuilds
	// The just-inserted signature and the second-oldest survivor hit...
	p.Parse(raw(distinctSigLine(4)))
	p.Parse(raw(distinctSigLine(1)))
	if got := p.Stats().GroupBuilds; got != builds {
		t.Errorf("surviving signatures rebuilt their groups: builds %d -> %d", builds, got)
	}
	// ...while the evicted oldest rebuilds.
	p.Parse(raw(distinctSigLine(0)))
	if got := p.Stats().GroupBuilds; got != builds+1 {
		t.Errorf("evicted signature did not rebuild: builds %d -> %d", builds, got)
	}
}

// TestEvictionRingBounded: under sustained anomalous flood the head-
// indexed ring never copies more than the evicted prefix per wave, so
// its backing slice stays within a small constant factor of the cap
// (the old slice-copy eviction kept it tight too — the invariant checked
// here is that amortized compaction bounds the dead prefix).
func TestEvictionRingBounded(t *testing.T) {
	const cap_ = 8
	set := mustSet(t, "stable %{NUMBER:n}")
	p := New(set, nil, WithMaxGroups(cap_))
	for i := 0; i < 500; i++ {
		p.Parse(raw(distinctSigLine(i)))
		if p.count > cap_ {
			t.Fatalf("live signatures %d exceed cap %d", p.count, cap_)
		}
		if live := len(p.order) - p.head; live != p.count {
			t.Fatalf("ring window %d disagrees with count %d", live, p.count)
		}
		if len(p.order) > 4*cap_ {
			t.Fatalf("ring slice grew to %d entries; compaction is not amortizing", len(p.order))
		}
	}
	if p.Stats().GroupEvictions == 0 {
		t.Fatal("no evictions under flood")
	}
}

// TestSignatureHashCollision: two distinct type sequences forced into
// the same hash bucket chain, and lookups resolve each to its own group
// via the collision-verification compare.
func TestSignatureHashCollision(t *testing.T) {
	set := mustSet(t, "%{DATETIME:ts} ok", "%{NUMBER:a} %{NUMBER:b} %{NUMBER:c}")
	p := New(set, nil)
	typesA := []datatype.Type{datatype.DateTime, datatype.Word}
	typesB := []datatype.Type{datatype.Number, datatype.Number, datatype.Number}
	groupA := p.buildGroup(typesA)
	groupB := p.buildGroup(typesB)
	if len(groupA) != 1 || len(groupB) != 1 || groupA[0].ID == groupB[0].ID {
		t.Fatalf("fixture groups wrong: %v %v", groupA, groupB)
	}

	// Force both signatures into bucket sigHash(typesA).
	h := sigHash(typesA)
	p.cacheGroup(h, typesA, groupA)
	p.cacheGroup(h, typesB, groupB)

	eA := p.lookup(h, typesA)
	eB := p.lookup(h, typesB)
	if eA == nil || len(eA.group) != 1 || eA.group[0].ID != groupA[0].ID {
		t.Errorf("lookup(typesA) resolved to %+v, want pattern %d", eA, groupA[0].ID)
	}
	if eB == nil || len(eB.group) != 1 || eB.group[0].ID != groupB[0].ID {
		t.Errorf("lookup(typesB) resolved to %+v, want pattern %d", eB, groupB[0].ID)
	}

	// A sequence that hashes here but was never cached must miss.
	if e := p.lookup(h, []datatype.Type{datatype.IP}); e != nil {
		t.Errorf("lookup of an uncached sequence returned %+v", e)
	}

	// Entries own their type sequences: mutating the caller's slice must
	// not corrupt the index.
	typesA[0] = datatype.IP
	if e := p.lookup(h, []datatype.Type{datatype.DateTime, datatype.Word}); e == nil {
		t.Error("entry aliased the caller's type slice")
	}
}

// TestCollisionChainEvictionOrder: chained entries under one hash evict
// oldest-first, matching their positions in the FIFO ring.
func TestCollisionChainEvictionOrder(t *testing.T) {
	set := mustSet(t, "%{DATETIME:ts} ok")
	p := New(set, nil, WithMaxGroups(2))
	typesA := []datatype.Type{datatype.DateTime, datatype.Word}
	typesB := []datatype.Type{datatype.Number}
	h := sigHash(typesA)
	p.cacheGroup(h, typesA, nil)
	p.cacheGroup(h, typesB, nil) // same bucket, inserted second

	// Next insert is over the cap: wave of 1 evicts the chain head A.
	p.cacheGroup(sigHash([]datatype.Type{datatype.IP}), []datatype.Type{datatype.IP}, nil)
	if p.lookup(h, typesA) != nil {
		t.Error("oldest chain entry survived eviction")
	}
	if p.lookup(h, typesB) == nil {
		t.Error("newer chain entry was evicted with the oldest")
	}
}

// TestParseGroupHitZeroAllocs: the full steady-state line path —
// preprocess, signature hash, group lookup, pattern match, field
// extraction — allocates nothing when the signature hits and the
// timestamp is already in the unified layout. This is the PR-5
// allocation budget enforced in go test, not just in benchmarks.
func TestParseGroupHitZeroAllocs(t *testing.T) {
	set := mustSet(t, "%{DATETIME:ts} %{IP:ip} login %{NOTSPACE:user}")
	p := New(set, nil)
	l := raw("2016/02/23 09:00:31.000 127.0.0.1 login user1")
	var pl logtypes.ParsedLog
	if err := p.ParseInto(l, &pl); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.ParseInto(l, &pl); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("group-hit ParseInto allocates %v per line, want 0", allocs)
	}
	if pl.PatternID == 0 || len(pl.Fields) != 3 {
		t.Fatalf("unexpected parse result: %+v", pl)
	}
	if hits := p.Stats().GroupHits; hits == 0 {
		t.Fatal("fixture never hit the group index")
	}
}

// TestParseIntoMatchesParse: the scratch-reusing entry point returns the
// same structured logs as Parse.
func TestParseIntoMatchesParse(t *testing.T) {
	set := mustSet(t, "%{DATETIME:ts} %{IP:ip} login %{NOTSPACE:user}", "job %{NOTSPACE:id} rc %{NUMBER:rc}")
	p := New(set, nil)
	q := New(set, nil)
	lines := []string{
		"2016/02/23 09:00:31.000 127.0.0.1 login user1",
		"job jb-7 rc 0",
		"unparseable anomaly line ###",
	}
	var pl logtypes.ParsedLog
	for _, line := range lines {
		want, errWant := p.Parse(raw(line))
		errGot := q.ParseInto(raw(line), &pl)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("ParseInto(%q) err = %v, Parse err = %v", line, errGot, errWant)
		}
		if errWant != nil {
			continue
		}
		if pl.PatternID != want.PatternID || fmt.Sprint(pl.Fields) != fmt.Sprint(want.Fields) ||
			!pl.Timestamp.Equal(want.Timestamp) || pl.HasTimestamp != want.HasTimestamp {
			t.Errorf("ParseInto(%q) = %+v, Parse = %+v", line, pl, *want)
		}
	}
}

// indexedFixture is a model whose "svc <name> <n>" signature holds enough
// literal-distinct candidates to be indexed.
var indexedFixture = []string{
	"svc alpha %{NUMBER:n}",
	"svc beta %{NUMBER:n}",
	"svc gamma %{NUMBER:n}",
	"svc delta %{NUMBER:n}",
}

// TestSetPatternsDropsIndex: a model swap drops every group together with
// its discrimination index — the next line is judged by the new model, not
// by ranks filed against the old one — and keeps the per-pattern counts.
func TestSetPatternsDropsIndex(t *testing.T) {
	p := New(mustSet(t, indexedFixture...), nil)
	for i := 0; i < 3; i++ {
		if pl, err := p.Parse(raw("svc gamma 7")); err != nil || pl.PatternID != 3 {
			t.Fatalf("before swap: %+v %v", pl, err)
		}
	}
	if n, _ := indexedGroups(p); n != 1 {
		t.Fatal("fixture group is not indexed")
	}

	// The new model has no gamma pattern and renumbers the rest.
	p.SetPatterns(mustSet(t, "svc delta %{NUMBER:n}", "svc beta %{NUMBER:n}", "svc alpha %{NUMBER:n}", "svc eps %{NUMBER:n}"))
	if len(p.groups) != 0 || p.count != 0 {
		t.Fatalf("SetPatterns left %d groups behind", len(p.groups))
	}
	if _, err := p.Parse(raw("svc gamma 7")); err != ErrNoMatch {
		t.Fatalf("gamma after swap: err %v, want ErrNoMatch", err)
	}
	if pl, err := p.Parse(raw("svc delta 7")); err != nil || pl.PatternID != 1 {
		t.Fatalf("delta after swap: %+v %v, want pattern 1", pl, err)
	}
	if got := p.PatternCounts(); got[3] != 3 || got[1] != 1 || len(got) != 2 {
		t.Fatalf("PatternCounts across the swap = %v, want map[1:1 3:3]", got)
	}
}

// TestEvictionDropsIndex: an indexed group evicted by the FIFO wave leaves
// with its index, is rebuilt and re-indexed on its next line, and its
// per-pattern counts survive the round trip.
func TestEvictionDropsIndex(t *testing.T) {
	p := New(mustSet(t, indexedFixture...), nil, WithMaxGroups(2))
	parse := func(line string, want int) {
		t.Helper()
		if pl, err := p.Parse(raw(line)); err != nil || pl.PatternID != want {
			t.Fatalf("%q: %+v %v, want pattern %d", line, pl, err, want)
		}
	}
	parse("svc beta 1", 2)
	parse("svc beta 2", 2)
	p.Parse(raw(distinctSigLine(0)))
	p.Parse(raw(distinctSigLine(1))) // over the cap: evicts the svc group
	if n, _ := indexedGroups(p); n != 0 {
		t.Fatal("evicted group's index is still reachable")
	}
	if got := p.PatternCounts()[2]; got != 2 {
		t.Fatalf("pattern 2 count after eviction = %d, want 2", got)
	}
	builds := p.Stats().GroupBuilds
	parse("svc delta 3", 4)
	parse("svc beta 4", 2)
	if got := p.Stats().GroupBuilds; got != builds+1 {
		t.Fatalf("evicted signature rebuilt %d groups, want 1", got-builds)
	}
	if n, _ := indexedGroups(p); n != 1 {
		t.Fatal("rebuilt group is not indexed")
	}
	if got := p.PatternCounts(); got[2] != 3 || got[4] != 1 {
		t.Fatalf("PatternCounts after rebuild = %v, want 2:3 4:1", got)
	}
}

// TestSignatureHashCollisionIndexed: a foreign signature chained first in
// an indexed group's hash bucket neither shadows the group nor lends it
// its index.
func TestSignatureHashCollisionIndexed(t *testing.T) {
	p := New(mustSet(t, append([]string{
		"%{IP:a} up", "%{IP:a} down", "%{IP:a} slow", "%{IP:a} gone",
	}, indexedFixture...)...), nil)
	svc := []datatype.Type{datatype.Word, datatype.Word, datatype.Number}
	host := []datatype.Type{datatype.IP, datatype.Word}
	h := sigHash(svc)
	p.cacheGroup(h, host, p.buildGroup(host)) // host's group squats in svc's bucket

	for i := 0; i < 2; i++ {
		if pl, err := p.Parse(raw("svc gamma 7")); err != nil || pl.PatternID != 7 {
			t.Fatalf("svc line through a colliding bucket: %+v %v", pl, err)
		}
	}
	if s := p.Stats(); s.GroupBuilds != 1 || s.GroupHits != 1 || s.CandidateScans != 2 {
		t.Fatalf("stats = %+v, want one build, one hit, two scans", s)
	}
	eHost, eSvc := p.lookup(h, host), p.lookup(h, svc)
	if eHost == nil || eSvc == nil || eHost.next != eSvc {
		t.Fatal("bucket does not chain both signatures")
	}
	if eHost.byLiteral["down"] == nil || eSvc.byLiteral["gamma"] == nil || eSvc.byLiteral["down"] != nil {
		t.Fatalf("entries share an index: host %v svc %v", eHost.byLiteral, eSvc.byLiteral)
	}
}
