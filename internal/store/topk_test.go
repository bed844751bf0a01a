package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"loglens/internal/clock"
)

// legacyHitSorter is the sort the store used before its order was
// stated: descending, Less is !(a < b), which is not a strict weak order
// and left the tie order to sort.Stable's internals.
type legacyHitSorter struct {
	hits []Hit
	keys []any
	desc bool
}

func (s legacyHitSorter) Len() int { return len(s.hits) }

func (s legacyHitSorter) Less(i, j int) bool {
	less := compareValues(s.keys[i], s.keys[j]) < 0
	if s.desc {
		return !less
	}
	return less
}

func (s legacyHitSorter) Swap(i, j int) {
	s.hits[i], s.hits[j] = s.hits[j], s.hits[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func hitIDs(hits []Hit) string {
	ids := make([]string, len(hits))
	for i, h := range hits {
		ids[i] = h.ID
	}
	return strings.Join(ids, ",")
}

// randKeyColumn draws n sort-field values of one kind, with many ties.
func randKeyColumn(rng *rand.Rand, n int) []any {
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	distinct := 1 + rng.Intn(2*n+1)
	kind := rng.Intn(5)
	out := make([]any, n)
	for i := range out {
		d := rng.Intn(distinct)
		switch kind {
		case 0:
			out[i] = base.Add(time.Duration(d) * time.Second).Format(time.RFC3339Nano)
		case 1:
			out[i] = base.Add(time.Duration(d) * time.Millisecond).In(time.FixedZone("X", 3600))
		case 2:
			out[i] = float64(d) / 4
		case 3:
			out[i] = fmt.Sprintf("k%03d", d)
		default:
			out[i] = nil // the sort field is missing everywhere
		}
	}
	return out
}

// TestPinnedOrderMatchesLegacyStable: for keys of one kind, the stated
// order — key, then insertion position, both reversed when descending —
// is exactly what the store's old sort.Stable produced, so pinning it
// changed no result. Both the full sort and the selector are checked.
func TestPinnedOrderMatchesLegacyStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(120)
		keys := randKeyColumn(rng, n)
		hits := make([]Hit, n)
		for i := range hits {
			hits[i] = Hit{ID: fmt.Sprintf("d%d", i), Doc: Document{"k": keys[i]}}
		}
		q := Query{SortBy: "k", Desc: rng.Intn(2) == 0, Limit: rng.Intn(n + 3)}

		legacy := append([]Hit(nil), hits...)
		legacyKeys := append([]any(nil), keys...)
		sort.Stable(legacyHitSorter{hits: legacy, keys: legacyKeys, desc: q.Desc})
		if q.Limit > 0 && len(legacy) > q.Limit {
			legacy = legacy[:q.Limit]
		}
		want := hitIDs(legacy)

		if got := hitIDs(sortAndLimitHits(append([]Hit(nil), hits...), q)); got != want {
			t.Fatalf("trial %d %+v: full sort\n got  %s\n want %s", trial, q, got, want)
		}
		if q.Limit == 0 {
			continue
		}
		sel := newTopK(q)
		for i, h := range hits {
			sel.offer(h.Doc["k"], uint64(i), h)
		}
		if sel.mixed {
			t.Fatalf("trial %d: one-kind keys took the fallback", trial)
		}
		if got := hitIDs(sel.hits()); got != want {
			t.Fatalf("trial %d %+v: selector\n got  %s\n want %s", trial, q, got, want)
		}
	}
}

// TestTopKFallsBackOnMixedKinds: keys compareValues cannot order as one
// kind abandon the selection; keys it can are kept.
func TestTopKFallsBackOnMixedKinds(t *testing.T) {
	wall := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name  string
		keys  []any
		mixed bool
	}{
		{"number then string", []any{1, "x"}, true},
		{"time then number", []any{wall, 2.5}, true},
		{"missing among numbers", []any{1, nil, 3}, true},
		{"NaN", []any{1.0, math.NaN()}, true},
		{"monotonic and wall times", []any{time.Now(), wall}, true},
		{"unparseable among time strings", []any{wall.Format(time.RFC3339), "2026-03-01 junk"}, true},
		{"monotonic times", []any{time.Now(), time.Now()}, false},
		{"time strings and times", []any{wall.Format(time.RFC3339Nano), wall.Add(time.Hour)}, false},
		{"ints, floats and uint64", []any{1, 2.5, uint64(7), int64(-3)}, false},
		{"missing and strings", []any{nil, "x", true}, false},
	} {
		sel := newTopK(Query{SortBy: "k", Limit: 1})
		for i, k := range tc.keys {
			sel.offer(k, uint64(i), Hit{ID: fmt.Sprint(i)})
		}
		if sel.mixed != tc.mixed {
			t.Errorf("%s: mixed = %v, want %v", tc.name, sel.mixed, tc.mixed)
		}
	}
}

// TestSearchTieOrderNewestFirst pins the tie order on both engines: many
// documents with one ts come back newest-inserted first when descending
// and oldest first when ascending, with or without a limit, across
// seals, a replacement and a reopen.
func TestSearchTieOrderNewestFirst(t *testing.T) {
	ts := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	ids := func(from, to int) string { // inclusive, either direction
		var out []string
		for i := from; ; {
			out = append(out, fmt.Sprintf("d%02d", i))
			if i == to {
				break
			}
			if from < to {
				i++
			} else {
				i--
			}
		}
		return strings.Join(out, ",")
	}
	check := func(name string, ix *Index) {
		t.Helper()
		for _, tc := range []struct {
			q    Query
			want string
		}{
			{Query{SortBy: "ts", Desc: true, Limit: 10}, ids(59, 50)},
			{Query{SortBy: "ts", Limit: 10}, ids(0, 9)},
			{Query{SortBy: "ts", Desc: true}, ids(59, 0)},
			{Query{SortBy: "n", Desc: true, Limit: 5}, ids(59, 55)},
			{Query{SortBy: "missing", Desc: true, Limit: 3}, ids(59, 57)},
		} {
			if got := hitIDs(ix.Search(tc.q)); got != tc.want {
				t.Errorf("%s %+v:\n got  %s\n want %s", name, tc.q, got, tc.want)
			}
		}
	}
	fill := func(ix *Index, flush func()) {
		for i := 0; i < 60; i++ {
			ix.Put(fmt.Sprintf("d%02d", i), Document{"ts": ts, "n": 7})
			if i%20 == 19 {
				flush()
			}
		}
		// A replacement keeps its insertion position.
		ix.Put("d55", Document{"ts": ts, "n": 7})
	}

	mem := New()
	fill(mem.Index("a"), func() {})
	check("memory", mem.Index("a"))

	dir, clk := t.TempDir(), clock.NewFake()
	eng := openTest(t, dir, clk)
	fill(eng.Index("a"), func() {
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	check("persistent", eng.Index("a"))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = openTest(t, dir, clk)
	defer eng.Close()
	check("persistent reopened", eng.Index("a"))
}

// TestNewestHundredReadsOneSegment: over six sealed segments, the
// newest hundred reads one segment's documents plus the memtable and
// leaves the other segments unread — counted in SegmentDocsRead and
// SegmentsSkipped — while returning the full sort's result.
func TestNewestHundredReadsOneSegment(t *testing.T) {
	const segs, perSeg, inMem = 6, 300, 50
	eng := openTest(t, t.TempDir(), clock.NewFake())
	defer eng.Close()
	ix := eng.Index("anomalies")
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < segs*perSeg+inMem; i++ {
		ix.PutAuto(Document{"ts": base.Add(time.Duration(i) * time.Second), "n": i, "src": fmt.Sprintf("s%d", i%4)})
		if i%perSeg == perSeg-1 && i < segs*perSeg {
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		q        Query
		segsRead uint64
	}{
		{Query{SortBy: "ts", Desc: true, Limit: 100}, 1},
		{Query{SortBy: "ts", Limit: 100}, 1},
		{Query{SortBy: "n", Desc: true, Limit: 100}, 1},
		// A quarter of each segment matches: the hundred span two.
		{Query{SortBy: "n", Desc: true, Limit: 100, Term: map[string]any{"src": "s1"}}, 2},
	} {
		q := tc.q
		before := eng.Stats()
		got := ix.Search(q)
		after := eng.Stats()
		all := ix.Search(Query{Term: q.Term})
		if want := hitIDs(sortAndLimitHits(all, q)); hitIDs(got) != want {
			t.Fatalf("%+v: result differs from the full sort", q)
		}
		if read := after.SegmentDocsRead - before.SegmentDocsRead; read > tc.segsRead*perSeg {
			t.Errorf("%+v read %d segment documents, want at most %d", q, read, tc.segsRead*perSeg)
		}
		if skipped := after.SegmentsSkipped - before.SegmentsSkipped; skipped != segs-tc.segsRead {
			t.Errorf("%+v skipped %d segments, want %d", q, skipped, segs-tc.segsRead)
		}
	}
	before := eng.Stats().SegmentDocsRead
	ix.Search(Query{SortBy: "ts", Desc: true})
	if read := eng.Stats().SegmentDocsRead - before; read != segs*perSeg {
		t.Errorf("unlimited sorted search read %d segment documents, want all %d", read, segs*perSeg)
	}
}

// sortedSearchDoc draws a document for the sorted-search property test.
// Its fields cover each sort path: ts and tv are times (as strings and
// as values), n a number, s a string, all with many ties; opt is a
// number that is sometimes missing and m mixes kinds, so sorting by
// either takes the fallback; "none" is never present.
func sortedSearchDoc(rng *rand.Rand, base time.Time) Document {
	zones := []*time.Location{time.UTC, time.FixedZone("CEST", 2*3600)}
	doc := Document{
		"ts": base.Add(time.Duration(rng.Intn(40)) * time.Second).In(zones[rng.Intn(2)]).Format(time.RFC3339Nano),
		"tv": base.Add(time.Duration(rng.Intn(40)) * time.Minute).In(zones[rng.Intn(2)]),
		"n":  float64(rng.Intn(30)) / 2,
		"s":  fmt.Sprintf("v%d", rng.Intn(8)),
		"g":  rng.Intn(4),
	}
	if rng.Intn(10) < 7 {
		doc["opt"] = rng.Intn(20)
	}
	switch rng.Intn(3) {
	case 0:
		doc["m"] = rng.Intn(5)
	case 1:
		doc["m"] = base.Add(time.Duration(rng.Intn(5)) * time.Hour).Format(time.RFC3339)
	default:
		doc["m"] = fmt.Sprintf("m%d", rng.Intn(5))
	}
	return doc
}

// referenceSearch is the plain reference: every match in scan order,
// sorted in full by the stated order, then limited.
func referenceSearch(ix *Index, q Query) []Hit {
	all := ix.Search(Query{Term: q.Term, RangeField: q.RangeField, RangeMin: q.RangeMin, RangeMax: q.RangeMax})
	pos := make(map[string]int, len(all))
	for i, h := range all {
		pos[h.ID] = i
	}
	sort.SliceStable(all, func(i, j int) bool {
		c := compareValues(all[i].Doc[q.SortBy], all[j].Doc[q.SortBy])
		if c == 0 {
			c = pos[all[i].ID] - pos[all[j].ID]
		}
		if q.Desc {
			return c > 0
		}
		return c < 0
	})
	if q.Limit > 0 && len(all) > q.Limit {
		all = all[:q.Limit]
	}
	return all
}

// oneKind reports whether the sort keys of hits take the selector path.
func oneKind(hits []Hit, field string) bool {
	var kind keyKind
	for _, h := range hits {
		k, ok := parseKey(h.Doc[field])
		if !ok || (kind != kindNone && k.kind != kind) {
			return false
		}
		kind = k.kind
	}
	return true
}

// TestPropertySortedSearchMatchesReference drives an in-memory index, a
// persistent one, and an in-memory one that also holds NaN values
// through one seeded sequence of puts, replacements, deletes, count
// retention, seals, compactions, reopens and sorted, limited searches,
// and requires every search to equal referenceSearch over the same
// index: time, number and string sort fields, ties, a missing field,
// mixed kinds and NaN, ascending and descending, limits from 1 to past
// the match count, with and without Term and Range filters.
func TestPropertySortedSearchMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSortedSearchOps(t, seed, 4000)
		})
	}
}

func runSortedSearchOps(t *testing.T, seed int64, nops int) {
	rng := rand.New(rand.NewSource(seed))
	dir, clk := t.TempDir(), clock.NewFake()
	opts := func(o *Options) {
		o.WALBufferBytes = 256
		o.FlushBytes = 8 << 10
		o.MaxSegments = 4
	}
	eng := openTest(t, dir, clk, opts)
	defer func() { eng.Close() }()
	mem, memNaN := New(), New()
	indices := func() []*Index { return []*Index{mem.Index("a"), eng.Index("a"), memNaN.Index("a")} }
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	fields := []string{"ts", "tv", "n", "s", "opt", "m", "none"}
	var selectorChecks, fallbackChecks int

	for i := 0; i < nops; i++ {
		switch r := rng.Intn(100); {
		case r < 40:
			id, doc := fmt.Sprintf("id%02d", rng.Intn(80)), sortedSearchDoc(rng, base)
			mem.Index("a").Put(id, doc)
			eng.Index("a").Put(id, doc)
			if rng.Intn(15) == 0 {
				doc = cloneDoc(doc)
				doc["n"] = math.NaN()
			}
			memNaN.Index("a").Put(id, doc)
		case r < 48:
			doc := sortedSearchDoc(rng, base)
			for _, ix := range indices() {
				ix.PutAuto(doc)
			}
		case r < 56:
			id := fmt.Sprintf("id%02d", rng.Intn(80))
			for _, ix := range indices() {
				ix.Delete(id)
			}
		case r < 57:
			cap := 20 + rng.Intn(80)
			for _, ix := range indices() {
				ix.SetRetention(cap)
			}
		case r < 62:
			if err := eng.Flush(); err != nil {
				t.Fatalf("op %d: Flush: %v", i, err)
			}
		case r < 64:
			if err := eng.Compact(); err != nil {
				t.Fatalf("op %d: Compact: %v", i, err)
			}
		case r < 65:
			if err := eng.Close(); err != nil {
				t.Fatalf("op %d: Close: %v", i, err)
			}
			eng = openTest(t, dir, clk, opts)
		case r < 67:
			clk.Advance(time.Duration(1+rng.Intn(90)) * time.Minute)
		default:
			q := Query{SortBy: fields[rng.Intn(len(fields))], Desc: rng.Intn(2) == 0}
			switch rng.Intn(4) {
			case 0:
				q.Term = map[string]any{"s": fmt.Sprintf("v%d", rng.Intn(9))}
			case 1:
				q.Term = map[string]any{"g": rng.Intn(4)}
			}
			switch rng.Intn(4) {
			case 0:
				q.RangeField, q.RangeMin, q.RangeMax = "n", float64(rng.Intn(15)), float64(rng.Intn(20))
			case 1:
				q.RangeField = "ts"
				q.RangeMin = base.Add(time.Duration(rng.Intn(40)) * time.Second).Format(time.RFC3339)
			}
			n := mem.Index("a").Count()
			if rng.Intn(3) == 0 {
				q.Limit = 1 + rng.Intn(5)
			} else {
				q.Limit = 1 + rng.Intn(n+5)
			}
			for k, ix := range indices() {
				want := referenceSearch(ix, q)
				got := ix.Search(q)
				wj, _ := json.Marshal(want)
				gj, _ := json.Marshal(got)
				if !bytes.Equal(wj, gj) {
					t.Fatalf("op %d index %d %+v:\n got  %s\n want %s", i, k, q, hitIDs(got), hitIDs(want))
				}
				if oneKind(ix.Search(Query{Term: q.Term, RangeField: q.RangeField, RangeMin: q.RangeMin, RangeMax: q.RangeMax}), q.SortBy) {
					selectorChecks++
				} else {
					fallbackChecks++
				}
			}
		}
	}
	if selectorChecks < 300 || fallbackChecks < 300 {
		t.Fatalf("searches: %d on the selector path, %d on the fallback; want at least 300 of each", selectorChecks, fallbackChecks)
	}
	if st := eng.Stats(); st.SegmentsSkipped == 0 {
		t.Fatal("no segment was ever skipped")
	}
}

// TestMaybeRFC3339IsNecessary: every string time.Parse accepts as RFC
// 3339 passes the pre-check, so the check changes no parse result.
func TestMaybeRFC3339IsNecessary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	zones := []*time.Location{time.UTC, time.FixedZone("A", 5*3600+1800), time.FixedZone("B", -8*3600)}
	seeds := []string{"2006-01-02T1:04:05Z", "2006-01-02T15:04:05Z", "0000-01-01T00:00:00+00:00", "9999-12-31T23:59:59.999999999-23:59"}
	const alphabet = "0123456789-:TtZz+. x"
	accepted := 0
	for i := 0; i < 200000; i++ {
		var s string
		if i%4 == 0 {
			s = seeds[rng.Intn(len(seeds))]
		} else {
			tm := time.Unix(rng.Int63n(1<<35)-1<<34, rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])
			s = tm.Format([]string{time.RFC3339, time.RFC3339Nano}[rng.Intn(2)])
		}
		b := []byte(s)
		for m := rng.Intn(3); m > 0 && len(b) > 0; m-- {
			p := rng.Intn(len(b))
			switch rng.Intn(4) {
			case 0:
				b = append(b[:p], b[p+1:]...)
			case 1:
				b = append(b[:p], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[p:]...)...)
			case 2:
				b[p] = alphabet[rng.Intn(len(alphabet))]
			default:
				b = b[:p]
			}
		}
		s = string(b)
		if _, err := time.Parse(time.RFC3339Nano, s); err == nil {
			accepted++
			if !maybeRFC3339(s) {
				t.Fatalf("time.Parse accepts %q but maybeRFC3339 rejects it", s)
			}
		}
	}
	if accepted < 50000 {
		t.Fatalf("only %d strings parsed; the test exercises too little", accepted)
	}
}

// legacyStatFields is statFields as it was before the string fast
// paths: time.Parse on every string, fmt.Sprint on every value.
func legacyStatFields(ft *segFooter, vals map[string]map[string]bool, doc Document) {
	asTimeLegacy := func(v any) (time.Time, bool) {
		switch t := v.(type) {
		case time.Time:
			return t, true
		case string:
			if parsed, err := time.Parse(time.RFC3339Nano, t); err == nil {
				return parsed, true
			}
		}
		return time.Time{}, false
	}
	for field, v := range doc {
		st, ok := ft.Fields[field]
		if !ok {
			if len(ft.Fields) >= maxStatFields {
				ft.FieldsOver = true
				continue
			}
			st = &fieldStat{}
			ft.Fields[field] = st
			vals[field] = make(map[string]bool)
		}
		st.Count++
		if n, ok := asFloat(v); ok {
			if st.NumCount == 0 || n < st.NumMin {
				st.NumMin = n
			}
			if st.NumCount == 0 || n > st.NumMax {
				st.NumMax = n
			}
			st.NumCount++
		}
		if t, ok := asTimeLegacy(v); ok {
			if st.TimeCount == 0 || t.Before(st.TimeMin) {
				st.TimeMin = t
			}
			if st.TimeCount == 0 || t.After(st.TimeMax) {
				st.TimeMax = t
			}
			st.TimeCount++
		}
		if !st.Over {
			s := fmt.Sprint(v)
			if !vals[field][s] {
				if len(vals[field]) >= maxStatVals {
					st.Over = true
					st.Vals = nil
				} else {
					vals[field][s] = true
					st.Vals = append(st.Vals, s)
				}
			}
		}
	}
}

// TestStatFieldsMatchesLegacy: footers built by statFields are
// byte-identical to the old statFields' on the property tests'
// documents, as given and in canonical form.
func TestStatFieldsMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{1, 42, 7} {
		rng := rand.New(rand.NewSource(seed))
		clk := clock.NewFake()
		base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
		newFt := &segFooter{Fields: make(map[string]*fieldStat)}
		oldFt := &segFooter{Fields: make(map[string]*fieldStat)}
		newVals, oldVals := make(map[string]map[string]bool), make(map[string]map[string]bool)
		for i := 0; i < 3000; i++ {
			var doc Document
			if i%2 == 0 {
				doc = propertyDoc(rng, clk)
			} else {
				doc = sortedSearchDoc(rng, base)
			}
			docs := []Document{doc}
			if _, cdoc, err := encodeDoc(doc); err == nil {
				docs = append(docs, cdoc)
			}
			for _, d := range docs {
				statFields(newFt, newVals, d)
				legacyStatFields(oldFt, oldVals, d)
			}
			if i%100 == 99 {
				nj, err := json.Marshal(newFt)
				if err != nil {
					t.Fatal(err)
				}
				oj, _ := json.Marshal(oldFt)
				if !bytes.Equal(nj, oj) {
					t.Fatalf("seed %d doc %d: footer differs:\nnew %s\nold %s", seed, i, nj, oj)
				}
			}
		}
	}
}
