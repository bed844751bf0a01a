package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"loglens/internal/clock"
)

// TestPropertyEngineMatchesOracle drives the store and a reference model
// (refIndex) through the same seeded random operation sequence — puts,
// batched puts, deletes, flushes, compactions, reopens, checkpoints and
// restores of the last checkpoint — and requires every query (Search,
// CountWhere, Histogram, Terms, Get, Count, the full scan) to agree with
// the model. Size seals run on a stepped sealer, so mutations and
// queries interleave with a seal between its cut and its commit,
// deterministically for a seed. Each seed runs on a store in a directory
// and on one over an in-memory filesystem (Open with an empty Dir, as
// New does), which cannot reopen: there a reopen is a flush.
func TestPropertyEngineMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			t.Run("disk", func(t *testing.T) { runPropertyOps(t, seed, 6000, t.TempDir()) })
			t.Run("mem", func(t *testing.T) { runPropertyOps(t, seed, 6000, "") })
		})
	}
}

// refIndex is the reference model of one index: the documents by id in
// canonical form (one JSON round trip), their insertion order and the
// auto-ID sequence. Queries filter in insertion order and sort all
// matches with a stable sort; it shares no code with the engine beyond
// the query semantics (matches, compareValues).
type refIndex struct {
	docs  map[string]Document
	order []string
	seq   uint64
}

func newRefIndex() *refIndex { return &refIndex{docs: make(map[string]Document)} }

// cloneModel copies a model of several indices, as a checkpoint keeps
// it. Documents are never modified in place, so they are shared.
func cloneModel(model map[string]*refIndex) map[string]*refIndex {
	out := make(map[string]*refIndex, len(model))
	for n, r := range model {
		out[n] = &refIndex{docs: maps.Clone(r.docs), order: slices.Clone(r.order), seq: r.seq}
	}
	return out
}

// refCanon is doc as the store returns it: json.Unmarshal of its
// json.Marshal encoding.
func refCanon(t *testing.T, doc Document) Document {
	t.Helper()
	j, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out Document
	if err := json.Unmarshal(j, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func (r *refIndex) put(t *testing.T, id string, doc Document) {
	if _, ok := r.docs[id]; !ok {
		r.order = append(r.order, id)
	}
	r.docs[id] = refCanon(t, doc)
}

func (r *refIndex) putAuto(t *testing.T, name string, doc Document) string {
	r.seq++
	id := fmt.Sprintf("%s-%d", name, r.seq)
	r.put(t, id, doc)
	return id
}

func (r *refIndex) del(id string) bool {
	if _, ok := r.docs[id]; !ok {
		return false
	}
	delete(r.docs, id)
	r.order = slices.DeleteFunc(r.order, func(o string) bool { return o == id })
	return true
}

func (r *refIndex) search(q Query) []Hit {
	var hits []Hit
	for _, id := range r.order {
		if matches(r.docs[id], q) {
			hits = append(hits, Hit{ID: id, Doc: r.docs[id]})
		}
	}
	if q.SortBy != "" {
		// Ties keep insertion order, reversed when descending.
		if q.Desc {
			slices.Reverse(hits)
		}
		sort.SliceStable(hits, func(i, j int) bool {
			c := compareValues(hits[i].Doc[q.SortBy], hits[j].Doc[q.SortBy])
			if q.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	return hits
}

func (r *refIndex) histogram(q Query, field string, interval time.Duration) ([]time.Time, []int) {
	counts := make(map[int64]int)
	for _, h := range r.search(Query{Term: q.Term, RangeField: q.RangeField, RangeMin: q.RangeMin, RangeMax: q.RangeMax}) {
		if tm, ok := asTime(h.Doc[field]); ok {
			counts[tm.UnixNano()/int64(interval)]++
		}
	}
	var buckets []int64
	for b := range counts {
		buckets = append(buckets, b)
	}
	slices.Sort(buckets)
	times, out := make([]time.Time, len(buckets)), make([]int, len(buckets))
	for i, b := range buckets {
		times[i], out[i] = time.Unix(0, b*int64(interval)).UTC(), counts[b]
	}
	return times, out
}

func (r *refIndex) terms(q Query, field string, limit int) []TermBucket {
	counts := make(map[string]int)
	for _, h := range r.search(Query{Term: q.Term, RangeField: q.RangeField, RangeMin: q.RangeMin, RangeMax: q.RangeMax}) {
		if v, ok := h.Doc[field]; ok {
			counts[fmt.Sprint(v)]++
		}
	}
	out := make([]TermBucket, 0, len(counts))
	for v, n := range counts {
		out = append(out, TermBucket{Value: v, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func runPropertyOps(t *testing.T, seed int64, nops int, dir string) {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewFake()
	opts := func(o *Options) {
		// Small thresholds so the op budget exercises WAL spills, size
		// seals, and policy compactions many times over.
		o.WALBufferBytes = 256
		o.FlushBytes = 4 << 10
		o.MaxSegments = 4
	}
	eng := openTest(t, dir, clk, opts)
	if eng.Persistent() != (dir != "") {
		t.Fatalf("Persistent() = %v for dir %q", eng.Persistent(), dir)
	}
	sealer := newStepSealer(eng)
	model := make(map[string]*refIndex)
	ref := func(n string) *refIndex {
		if model[n] == nil {
			model[n] = newRefIndex()
		}
		return model[n]
	}
	defer func() {
		sealer.step()
		eng.Close()
	}()
	// guard steps the seal in flight when logging up to bound more WAL
	// bytes could reach the backlog bound, where the put would wait for
	// the stepper.
	guard := func(bound int) {
		if int64(sealBacklog(eng)+bound) >= eng.eng.opts.FlushBytes {
			sealer.step()
		}
	}

	names := []string{"alpha", "beta"}
	name := func() string { return names[rng.Intn(len(names))] }
	id := func() string { return fmt.Sprintf("id%02d", rng.Intn(40)) }
	// autoID names an id PutAuto may generate later, so auto puts, batched
	// or not, sometimes replace a document in place.
	autoID := func(n string) string { return fmt.Sprintf("%s-%d", n, 1+rng.Intn(300)) }

	randDoc := func() Document { return propertyDoc(rng, clk) }
	randQuery := func() Query {
		var q Query
		if rng.Intn(2) == 0 {
			q.Term = map[string]any{"s": fmt.Sprintf("v%d", rng.Intn(8))}
		}
		if rng.Intn(3) == 0 {
			lo, hi := rng.Intn(100), rng.Intn(120)
			q.RangeField, q.RangeMin, q.RangeMax = "n", lo, hi
		}
		switch rng.Intn(4) {
		case 0:
			q.SortBy = "n"
		case 1:
			q.SortBy, q.Desc = "s", true
		case 2:
			q.SortBy = "time"
		}
		if rng.Intn(3) == 0 {
			q.Limit = 1 + rng.Intn(10)
		}
		return q
	}

	// mustEq compares results as JSON: both sides hold canonical
	// documents, so equal results encode to equal bytes.
	canonJSON := func(op, who string, v any) []byte {
		t.Helper()
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal %s result: %v", op, who, err)
		}
		return j
	}
	mustEq := func(op string, a, b any) {
		t.Helper()
		aj, bj := canonJSON(op, "store", a), canonJSON(op, "model", b)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("%s diverged:\nstore: %s\nmodel: %s", op, aj, bj)
		}
	}
	checkContents := func(n string) {
		t.Helper()
		mustEq("contents "+n, contents(eng.Index(n)), ref(n).search(Query{}))
	}
	// The last checkpoint: the store generation it pinned and the model
	// as it stood then.
	var ckGen uint64
	var ckModel map[string]*refIndex

	for i := 0; i < nops; i++ {
		n := name()
		switch r := rng.Intn(105); {
		case r < 30: // put
			d, doc := id(), randDoc()
			if rng.Intn(8) == 0 {
				d = autoID(n)
			}
			guard(walBound(doc))
			eng.Index(n).Put(d, doc)
			ref(n).put(t, d, doc)
		case r < 35: // put batch: the model is one PutAuto per document
			docs := make([]Document, 1+rng.Intn(12))
			for j := range docs {
				if rng.Intn(2) == 0 {
					docs[j] = randDoc()
				} else {
					docs[j] = propertyFlatDoc(rng, clk)
				}
				ref(n).putAuto(t, n, docs[j])
			}
			guard(walBound(docs...))
			eng.Index(n).PutBatch(docs)
		case r < 45: // put auto
			doc := randDoc()
			guard(walBound(doc))
			ei := eng.Index(n).PutAuto(doc)
			if mi := ref(n).putAuto(t, n, doc); ei != mi {
				t.Fatalf("op %d: PutAuto ids diverged: store %q model %q", i, ei, mi)
			}
		case r < 55: // delete
			d := id()
			if ed, md := eng.Index(n).Delete(d), ref(n).del(d); ed != md {
				t.Fatalf("op %d: Delete(%s/%s) diverged: store %v model %v", i, n, d, ed, md)
			}
		case r < 67: // search
			q := randQuery()
			mustEq(fmt.Sprintf("op %d Search %s %+v", i, n, q), eng.Index(n).Search(q), ref(n).search(q))
		case r < 73: // count-where
			q := randQuery()
			q.SortBy, q.Limit = "", 0
			if eg, mg := eng.Index(n).CountWhere(q), len(ref(n).search(q)); eg != mg {
				t.Fatalf("op %d: CountWhere diverged: store %d model %d (%+v)", i, eg, mg, q)
			}
		case r < 77: // histogram
			q := randQuery()
			et, ec := eng.Index(n).Histogram(q, "time", 10*time.Minute)
			mt, mc := ref(n).histogram(q, "time", 10*time.Minute)
			mustEq(fmt.Sprintf("op %d Histogram times", i), et, mt)
			mustEq(fmt.Sprintf("op %d Histogram counts", i), ec, mc)
		case r < 81: // terms
			q := randQuery()
			limit := rng.Intn(4)
			mustEq(fmt.Sprintf("op %d Terms", i), eng.Index(n).Terms(q, "s", limit), ref(n).terms(q, "s", limit))
		case r < 85: // get + count
			d := id()
			edoc, eok := eng.Index(n).Get(d)
			mdoc, mok := ref(n).docs[d]
			if eok != mok {
				t.Fatalf("op %d: Get(%s/%s) presence diverged: store %v model %v", i, n, d, eok, mok)
			}
			mustEq(fmt.Sprintf("op %d Get %s/%s", i, n, d), edoc, mdoc)
			if ec, mc := eng.Index(n).Count(), len(ref(n).docs); ec != mc {
				t.Fatalf("op %d: Count diverged: store %d model %d", i, ec, mc)
			}
			// No op here ages anything out: a seal, compaction or
			// restore that counts an eviction miscounts.
			if ee := eng.Index(n).Evicted(); ee != 0 {
				t.Fatalf("op %d: Evicted = %d, want 0", i, ee)
			}
		case r < 89: // flush / sync
			if rng.Intn(2) == 0 {
				sealer.step()
				if err := eng.Flush(); err != nil {
					t.Fatalf("op %d: Flush: %v", i, err)
				}
			} else if err := eng.Sync(); err != nil {
				t.Fatalf("op %d: Sync: %v", i, err)
			}
		case r < 91: // compact
			sealer.step()
			if err := eng.Compact(); err != nil {
				t.Fatalf("op %d: Compact: %v", i, err)
			}
		case r < 93: // advance time (shifts seal buckets)
			clk.Advance(time.Duration(1+rng.Intn(90)) * time.Minute)
		case r < 95: // delete a whole index
			_, had := model[n]
			if en := eng.DeleteIndex(n); en != had {
				t.Fatalf("op %d: DeleteIndex(%s) diverged: store %v model %v", i, n, en, had)
			}
			delete(model, n)
		case r < 97: // reopen: close cleanly, open again, state must survive
			sealer.step()
			if dir == "" {
				if err := eng.Flush(); err != nil {
					t.Fatalf("op %d: Flush: %v", i, err)
				}
				break
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("op %d: Close: %v", i, err)
			}
			eng = openTest(t, dir, clk, opts)
			sealer.attach(eng)
			for _, nm := range names {
				checkContents(nm)
			}
		case r < 99: // checkpoint: seal and pin a generation
			sealer.step()
			gen, err := eng.Checkpoint()
			if err != nil {
				t.Fatalf("op %d: Checkpoint: %v", i, err)
			}
			ckGen, ckModel = gen, cloneModel(model)
		case r < 101: // restore the last checkpoint
			if ckGen == 0 {
				break
			}
			sealer.step()
			if err := eng.LoadGeneration(ckGen); err != nil {
				t.Fatalf("op %d: LoadGeneration(%d): %v", i, ckGen, err)
			}
			model = cloneModel(ckModel)
			for _, nm := range eng.Indices() {
				ref(nm) // born after the cut: back, but empty
			}
			for _, nm := range names {
				checkContents(nm)
			}
		default: // the sealer builds and commits the seal in flight
			sealer.step()
		}
		if i%500 == 499 {
			for _, nm := range names {
				checkContents(nm)
			}
		}
	}
	for _, nm := range names {
		checkContents(nm)
		if ec, mc := eng.Index(nm).Count(), len(ref(nm).docs); ec != mc {
			t.Fatalf("final Count(%s) diverged: store %d model %d", nm, ec, mc)
		}
	}
}

// sealBacklog is how many WAL bytes s has logged behind its seal in
// flight (zero when there is none).
func sealBacklog(s *Store) int {
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sealing == nil {
		return 0
	}
	return int(e.walSize() - e.sealing.walSize)
}

// walBound over-estimates the WAL bytes one put of docs logs: each
// document's JSON twice over (its canonical form is shorter than that)
// plus room for the record's other fields.
func walBound(docs ...Document) int {
	n := 256
	for _, doc := range docs {
		j, err := json.Marshal(doc)
		if err != nil {
			return 1 << 30
		}
		n += 2*len(j) + 256
	}
	return n
}

// propertyFlatDoc is a random document already in the canonical form the
// segment engine keeps (float64 numbers, RFC 3339 strings), which
// PutBatch stores without building a second map. Its strings include
// some JSON must escape or repair; a repaired one sends the document
// down the general encoder.
func propertyFlatDoc(rng *rand.Rand, clk clock.Clock) Document {
	doc := Document{
		"n": float64(rng.Intn(100)),
		"s": fmt.Sprintf("v%d", rng.Intn(6)),
	}
	if rng.Intn(2) == 0 {
		doc["time"] = clk.Now().Add(time.Duration(rng.Intn(7200)) * time.Second).Format(time.RFC3339Nano)
	}
	if rng.Intn(3) == 0 {
		doc["flag"] = rng.Intn(2) == 0
	}
	if rng.Intn(4) == 0 {
		doc["none"] = nil
	}
	if rng.Intn(3) == 0 {
		doc["w"] = propertyWeird[rng.Intn(len(propertyWeird))]
	}
	return doc
}

var (
	propertyZones = []*time.Location{time.UTC, time.FixedZone("CEST", 2*3600), time.FixedZone("NST", -(3*3600 + 30*60))}
	propertyWeird = []string{"\xff", "ok\xc3(", "<a & b>", "line\u2028para\u2029", "\x00\x01\b\f\n\r\t\x1f", `q"\`}
)

// propertyDoc is one random document of the property tests: numbers,
// strings, times as strings and as values, nested values, and strings
// JSON must escape or repair.
func propertyDoc(rng *rand.Rand, clk clock.Clock) Document {
	doc := Document{
		"n": rng.Intn(100),
		"s": fmt.Sprintf("v%d", rng.Intn(6)),
	}
	if rng.Intn(2) == 0 {
		doc["f"] = rng.Float64() * 100
	}
	if rng.Intn(3) == 0 {
		doc["time"] = clk.Now().Add(time.Duration(rng.Intn(7200)) * time.Second).Format(time.RFC3339Nano)
	}
	if rng.Intn(5) == 0 {
		doc["flag"] = rng.Intn(2) == 0
	}
	// Values the encode-once path converts itself: integers past
	// float64's exact range, raw times (zoned, or carrying a monotonic
	// reading), nested maps and slices, and strings JSON must escape
	// or repair.
	if rng.Intn(3) == 0 {
		doc["u"] = rng.Uint64()
	}
	switch rng.Intn(4) {
	case 0:
		doc["at"] = clk.Now().Add(time.Duration(rng.Intn(7200)) * time.Second).In(propertyZones[rng.Intn(len(propertyZones))])
	case 1:
		doc["at"] = time.Now()
	}
	if rng.Intn(4) == 0 {
		doc["nest"] = map[string]any{
			"k": []any{rng.Intn(5), propertyWeird[rng.Intn(len(propertyWeird))], nil, map[string]any{"b": rng.Intn(2) == 0}},
			"f": float32(rng.Float64()),
		}
	}
	if rng.Intn(3) == 0 {
		doc["w"] = propertyWeird[rng.Intn(len(propertyWeird))]
	}
	return doc
}
