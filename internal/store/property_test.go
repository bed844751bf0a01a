package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"loglens/internal/clock"
)

// TestPropertyEngineMatchesOracle drives the segment engine and the
// in-memory engine through the same seeded random operation sequence —
// puts, batched puts, deletes, retention caps, loads, flushes,
// compactions, reopens — and requires every query (Search, CountWhere,
// Histogram, Terms, Get, Count, Dump) to return identical results. Size
// seals run on a stepped sealer, so mutations and queries interleave
// with a seal between its cut and its commit, deterministically for a
// seed. The in-memory engine is the oracle: it predates the segment
// engine and its behavior is pinned by the rest of the suite.
func TestPropertyEngineMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runPropertyOps(t, seed, 6000)
		})
	}
}

func runPropertyOps(t *testing.T, seed int64, nops int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	clk := clock.NewFake()
	opts := func(o *Options) {
		// Small thresholds so the op budget exercises WAL spills, size
		// seals, and policy compactions many times over.
		o.WALBufferBytes = 256
		o.FlushBytes = 4 << 10
		o.MaxSegments = 4
	}
	eng := openTest(t, dir, clk, opts)
	sealer := newStepSealer(eng)
	oracle := New()
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

	// mustEq compares results in canonical JSON form: the oracle keeps the
	// values as given, the engine their canonical form (float64 numbers,
	// RFC 3339 strings, repaired UTF-8), which one JSON round trip of the
	// oracle's result reproduces.
	canonJSON := func(op, who string, v any) []byte {
		t.Helper()
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal %s result: %v", op, who, err)
		}
		var back any
		if err := json.Unmarshal(j, &back); err != nil {
			t.Fatalf("%s: unmarshal %s result: %v", op, who, err)
		}
		if j, err = json.Marshal(back); err != nil {
			t.Fatalf("%s: re-marshal %s result: %v", op, who, err)
		}
		return j
	}
	mustEq := func(op string, a, b any) {
		t.Helper()
		aj, bj := canonJSON(op, "engine", a), canonJSON(op, "oracle", b)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("%s diverged:\nengine: %s\noracle: %s", op, aj, bj)
		}
	}
	checkDump := func(n string) {
		t.Helper()
		ed, err := eng.Index(n).Dump()
		if err != nil {
			t.Fatalf("engine dump %q: %v", n, err)
		}
		od, err := oracle.Index(n).Dump()
		if err != nil {
			t.Fatalf("oracle dump %q: %v", n, err)
		}
		var em, om map[string]Document
		if err := json.Unmarshal(ed, &em); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(od, &om); err != nil {
			t.Fatal(err)
		}
		mustEq("dump "+n, em, om)
	}

	for i := 0; i < nops; i++ {
		n := name()
		switch r := rng.Intn(106); {
		case r < 30: // put
			d, doc := id(), randDoc()
			if rng.Intn(8) == 0 {
				d = autoID(n)
			}
			guard(walBound(doc))
			eng.Index(n).Put(d, doc)
			oracle.Index(n).Put(d, doc)
		case r < 35: // put batch: the oracle is one PutAuto per document
			docs := make([]Document, 1+rng.Intn(12))
			for j := range docs {
				if rng.Intn(2) == 0 {
					docs[j] = randDoc()
				} else {
					docs[j] = propertyFlatDoc(rng, clk)
				}
				oracle.Index(n).PutAuto(docs[j])
			}
			guard(walBound(docs...))
			eng.Index(n).PutBatch(docs)
		case r < 45: // put auto
			doc := randDoc()
			guard(walBound(doc))
			ei := eng.Index(n).PutAuto(doc)
			oi := oracle.Index(n).PutAuto(doc)
			if ei != oi {
				t.Fatalf("op %d: PutAuto ids diverged: engine %q oracle %q", i, ei, oi)
			}
		case r < 55: // delete
			d := id()
			ed := eng.Index(n).Delete(d)
			od := oracle.Index(n).Delete(d)
			if ed != od {
				t.Fatalf("op %d: Delete(%s/%s) diverged: engine %v oracle %v", i, n, d, ed, od)
			}
		case r < 58: // retention cap
			cap := 5 + rng.Intn(40)
			eng.Index(n).SetRetention(cap)
			oracle.Index(n).SetRetention(cap)
		case r < 70: // search
			q := randQuery()
			mustEq(fmt.Sprintf("op %d Search %s %+v", i, n, q),
				eng.Index(n).Search(q), oracle.Index(n).Search(q))
		case r < 76: // count-where
			q := randQuery()
			if eg, og := eng.Index(n).CountWhere(q), oracle.Index(n).CountWhere(q); eg != og {
				t.Fatalf("op %d: CountWhere diverged: engine %d oracle %d (%+v)", i, eg, og, q)
			}
		case r < 80: // histogram
			q := randQuery()
			et, ec := eng.Index(n).Histogram(q, "time", 10*time.Minute)
			ot, oc := oracle.Index(n).Histogram(q, "time", 10*time.Minute)
			mustEq(fmt.Sprintf("op %d Histogram times", i), et, ot)
			mustEq(fmt.Sprintf("op %d Histogram counts", i), ec, oc)
		case r < 84: // terms
			q := randQuery()
			limit := rng.Intn(4)
			mustEq(fmt.Sprintf("op %d Terms", i),
				eng.Index(n).Terms(q, "s", limit), oracle.Index(n).Terms(q, "s", limit))
		case r < 88: // get + counters
			d := id()
			edoc, eok := eng.Index(n).Get(d)
			odoc, ook := oracle.Index(n).Get(d)
			if eok != ook {
				t.Fatalf("op %d: Get(%s/%s) presence diverged: engine %v oracle %v", i, n, d, eok, ook)
			}
			mustEq(fmt.Sprintf("op %d Get %s/%s", i, n, d), edoc, odoc)
			if ec, oc := eng.Index(n).Count(), oracle.Index(n).Count(); ec != oc {
				t.Fatalf("op %d: Count diverged: engine %d oracle %d", i, ec, oc)
			}
			if ee, oe := eng.Index(n).Evicted(), oracle.Index(n).Evicted(); ee != oe {
				t.Fatalf("op %d: Evicted diverged: engine %d oracle %d", i, ee, oe)
			}
		case r < 92: // flush / sync
			if rng.Intn(2) == 0 {
				sealer.step()
				if err := eng.Flush(); err != nil {
					t.Fatalf("op %d: Flush: %v", i, err)
				}
			} else if err := eng.Sync(); err != nil {
				t.Fatalf("op %d: Sync: %v", i, err)
			}
		case r < 94: // compact
			sealer.step()
			if err := eng.Compact(); err != nil {
				t.Fatalf("op %d: Compact: %v", i, err)
			}
		case r < 96: // advance time (shifts seal buckets)
			clk.Advance(time.Duration(1+rng.Intn(90)) * time.Minute)
		case r < 98: // delete a whole index
			en := eng.DeleteIndex(n)
			on := oracle.DeleteIndex(n)
			if en != on {
				t.Fatalf("op %d: DeleteIndex(%s) diverged: engine %v oracle %v", i, n, en, on)
			}
		case r < 100: // reopen: close cleanly, open again, state must survive
			sealer.step()
			if err := eng.Close(); err != nil {
				t.Fatalf("op %d: Close: %v", i, err)
			}
			eng = openTest(t, dir, clk, opts)
			sealer.attach(eng)
			for _, nm := range names {
				checkDump(nm)
			}
		case r < 102: // load a small snapshot over the index
			docs := make(map[string]Document)
			for k := rng.Intn(5); k > 0; k-- {
				d := id()
				if rng.Intn(3) == 0 {
					d = autoID(n)
				}
				docs[d] = propertyFlatDoc(rng, clk)
			}
			data, err := json.Marshal(docs)
			if err != nil {
				t.Fatal(err)
			}
			guard(2*len(data) + 256)
			if err := eng.Index(n).Load(data); err != nil {
				t.Fatalf("op %d: engine Load: %v", i, err)
			}
			if err := oracle.Index(n).Load(data); err != nil {
				t.Fatalf("op %d: oracle Load: %v", i, err)
			}
		default: // the sealer builds and commits the seal in flight
			sealer.step()
		}
		if i%500 == 499 {
			for _, nm := range names {
				checkDump(nm)
			}
		}
	}
	for _, nm := range names {
		checkDump(nm)
		if ec, oc := eng.Index(nm).Count(), oracle.Index(nm).Count(); ec != oc {
			t.Fatalf("final Count(%s) diverged: engine %d oracle %d", nm, ec, oc)
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
	return len(e.wal) - e.sealing.walLen
}

// walBound over-estimates the WAL bytes one put of docs logs: each
// document's JSON twice over (its canonical form is shorter than that)
// plus room for the record's other fields and a retention record.
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
