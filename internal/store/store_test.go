package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	ix := s.Index("logs")
	ix.Put("a", Document{"msg": "hello", "n": 1})
	doc, ok := ix.Get("a")
	if !ok || doc["msg"] != "hello" {
		t.Fatalf("Get = %v/%v", doc, ok)
	}
	// Returned documents are copies.
	doc["msg"] = "mutated"
	doc2, _ := ix.Get("a")
	if doc2["msg"] != "hello" {
		t.Error("Get must return a copy")
	}
	if !ix.Delete("a") || ix.Delete("a") {
		t.Error("Delete semantics")
	}
	if ix.Count() != 0 {
		t.Errorf("count = %d", ix.Count())
	}
}

func TestPutAuto(t *testing.T) {
	s := New()
	ix := s.Index("anomalies")
	id1 := ix.PutAuto(Document{"x": 1})
	id2 := ix.PutAuto(Document{"x": 2})
	if id1 == id2 {
		t.Fatal("auto IDs must be unique")
	}
	if ix.Count() != 2 {
		t.Errorf("count = %d", ix.Count())
	}
}

func TestTermSearch(t *testing.T) {
	s := New()
	ix := s.Index("t")
	for i := 0; i < 10; i++ {
		ix.PutAuto(Document{"source": fmt.Sprintf("s%d", i%2), "n": i})
	}
	hits := ix.Search(Query{Term: map[string]any{"source": "s1"}})
	if len(hits) != 5 {
		t.Fatalf("hits = %d, want 5", len(hits))
	}
	for _, h := range hits {
		if h.Doc["source"] != "s1" {
			t.Errorf("wrong hit %v", h.Doc)
		}
	}
	if n := ix.CountWhere(Query{Term: map[string]any{"source": "s0"}}); n != 5 {
		t.Errorf("CountWhere = %d", n)
	}
}

func TestRangeAndSort(t *testing.T) {
	s := New()
	ix := s.Index("t")
	for i := 0; i < 10; i++ {
		ix.PutAuto(Document{"n": i})
	}
	hits := ix.Search(Query{RangeField: "n", RangeMin: 3, RangeMax: 7, SortBy: "n", Desc: true})
	if len(hits) != 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	// Numbers come back canonical: float64, as JSON decodes them.
	if hits[0].Doc["n"] != 7.0 || hits[4].Doc["n"] != 3.0 {
		t.Errorf("sort order wrong: %v ... %v", hits[0].Doc, hits[4].Doc)
	}
	// Open-ended range.
	hits = ix.Search(Query{RangeField: "n", RangeMin: 8})
	if len(hits) != 2 {
		t.Errorf("open range hits = %d", len(hits))
	}
	// Limit.
	hits = ix.Search(Query{SortBy: "n", Limit: 3})
	if len(hits) != 3 || hits[2].Doc["n"] != 2.0 {
		t.Errorf("limit: %v", hits)
	}
}

func TestTimeRange(t *testing.T) {
	s := New()
	ix := s.Index("t")
	base := time.Date(2016, 5, 9, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		ix.PutAuto(Document{"ts": base.Add(time.Duration(i) * time.Hour)})
	}
	hits := ix.Search(Query{RangeField: "ts", RangeMin: base.Add(2 * time.Hour), RangeMax: base.Add(4 * time.Hour)})
	if len(hits) != 3 {
		t.Fatalf("time range hits = %d, want 3", len(hits))
	}
}

func TestHistogram(t *testing.T) {
	s := New()
	ix := s.Index("anomalies")
	base := time.Date(2016, 5, 9, 12, 0, 0, 0, time.UTC)
	// Two bursts: 3 anomalies at +0..2 min, 2 anomalies at +60..61 min.
	for i := 0; i < 3; i++ {
		ix.PutAuto(Document{"ts": base.Add(time.Duration(i) * time.Minute), "type": "missing-end-state"})
	}
	for i := 0; i < 2; i++ {
		ix.PutAuto(Document{"ts": base.Add(time.Duration(60+i) * time.Minute), "type": "missing-end-state"})
	}
	times, counts := ix.Histogram(Query{}, "ts", 10*time.Minute)
	if len(times) != 2 {
		t.Fatalf("buckets = %d (%v %v)", len(times), times, counts)
	}
	if counts[0] != 3 || counts[1] != 2 {
		t.Errorf("counts = %v", counts)
	}
	if !times[0].Before(times[1]) {
		t.Error("buckets must be sorted")
	}
}

func TestIndices(t *testing.T) {
	s := New()
	s.Index("b")
	s.Index("a")
	got := s.Indices()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Indices = %v", got)
	}
	if !s.DeleteIndex("a") || s.DeleteIndex("a") {
		t.Error("DeleteIndex semantics")
	}
	// Index returns the same instance for the same name.
	if s.Index("b") != s.Index("b") {
		t.Error("Index must be stable")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	ix := s.Index("t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ix.PutAuto(Document{"g": g, "i": i})
				ix.Search(Query{Term: map[string]any{"g": g}})
				ix.Count()
			}
		}(g)
	}
	wg.Wait()
	if ix.Count() != 800 {
		t.Errorf("count = %d", ix.Count())
	}
}

func TestMixedNumericComparison(t *testing.T) {
	s := New()
	ix := s.Index("t")
	ix.Put("a", Document{"n": int64(5)})
	// Query with int against stored int64; float against int.
	if n := ix.CountWhere(Query{Term: map[string]any{"n": 5}}); n != 1 {
		t.Errorf("int/int64 equality failed: %d", n)
	}
	if n := ix.CountWhere(Query{RangeField: "n", RangeMin: 4.5, RangeMax: 5.5}); n != 1 {
		t.Errorf("float range over int64 failed: %d", n)
	}
}

func TestTermsAggregation(t *testing.T) {
	s := New()
	ix := s.Index("anomalies")
	for i := 0; i < 7; i++ {
		ix.PutAuto(Document{"type": "missing-end-state", "source": "d1"})
	}
	for i := 0; i < 3; i++ {
		ix.PutAuto(Document{"type": "duration-violation", "source": "d1"})
	}
	ix.PutAuto(Document{"type": "duration-violation", "source": "d2"})
	ix.PutAuto(Document{"source": "d2"}) // no type field: excluded

	buckets := ix.Terms(Query{}, "type", 0)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %v", buckets)
	}
	if buckets[0].Value != "missing-end-state" || buckets[0].Count != 7 {
		t.Errorf("top bucket = %+v", buckets[0])
	}
	if buckets[1].Value != "duration-violation" || buckets[1].Count != 4 {
		t.Errorf("second bucket = %+v", buckets[1])
	}
	// Filtered aggregation.
	buckets = ix.Terms(Query{Term: map[string]any{"source": "d2"}}, "type", 0)
	if len(buckets) != 1 || buckets[0].Count != 1 {
		t.Errorf("filtered buckets = %v", buckets)
	}
	// Limit.
	if got := len(ix.Terms(Query{}, "type", 1)); got != 1 {
		t.Errorf("limited buckets = %d", got)
	}
}

// TestSearchAgainstReference property-tests Search against a naive
// reference filter on randomized documents and queries.
func TestSearchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	ix := s.Index("t")
	type doc struct {
		id string
		n  int
		k  string
	}
	var docs []doc
	kinds := []string{"a", "b", "c"}
	for i := 0; i < 300; i++ {
		d := doc{id: fmt.Sprintf("d%03d", i), n: rng.Intn(50), k: kinds[rng.Intn(3)]}
		docs = append(docs, d)
		ix.Put(d.id, Document{"n": d.n, "k": d.k})
	}
	for trial := 0; trial < 200; trial++ {
		q := Query{Term: map[string]any{}}
		var wantKind string
		if rng.Intn(2) == 0 {
			wantKind = kinds[rng.Intn(3)]
			q.Term["k"] = wantKind
		}
		lo, hi := rng.Intn(50), rng.Intn(50)
		if lo > hi {
			lo, hi = hi, lo
		}
		useRange := rng.Intn(2) == 0
		if useRange {
			q.RangeField, q.RangeMin, q.RangeMax = "n", lo, hi
		}
		want := 0
		for _, d := range docs {
			if wantKind != "" && d.k != wantKind {
				continue
			}
			if useRange && (d.n < lo || d.n > hi) {
				continue
			}
			want++
		}
		if got := len(ix.Search(q)); got != want {
			t.Fatalf("trial %d: Search=%d reference=%d (query %+v)", trial, got, want, q)
		}
		if got := ix.CountWhere(q); got != want {
			t.Fatalf("trial %d: CountWhere=%d reference=%d", trial, got, want)
		}
	}
}

// TestSearchLimitReturnsSortedCopies: a sorted, limited search returns the
// head of the full sorted listing (insertion order breaking ties), and
// the hits are the caller's own copies.
func TestSearchLimitReturnsSortedCopies(t *testing.T) {
	ix := New().Index("t")
	for i := 0; i < 50; i++ {
		ix.Put(fmt.Sprintf("d%02d", i), Document{"n": i % 7, "i": i})
	}
	full := ix.Search(Query{SortBy: "n", Desc: true})
	top := ix.Search(Query{SortBy: "n", Desc: true, Limit: 10})
	if len(full) != 50 || len(top) != 10 {
		t.Fatalf("hits = %d and %d, want 50 and 10", len(full), len(top))
	}
	for i := range top {
		if top[i].ID != full[i].ID {
			t.Fatalf("hit %d = %s, full listing has %s", i, top[i].ID, full[i].ID)
		}
	}
	top[0].Doc["n"] = "mutated"
	if doc, _ := ix.Get(top[0].ID); doc["n"] == "mutated" {
		t.Fatal("Search handed out the stored document")
	}
	if hits := ix.Search(Query{Term: map[string]any{"n": 99}, Limit: 10}); hits != nil {
		t.Fatalf("no-match search = %v, want nil", hits)
	}
}
