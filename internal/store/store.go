// Package store is LogLens's document store: the one store behind its
// three storage components — log storage, model storage, and anomaly
// storage — in place of Elasticsearch (§II). It offers the surface LogLens
// actually uses: named indices of JSON-like documents, term and range
// queries with sorting and limits, counts, and time-histogram aggregations
// for the dashboard.
//
// There is one engine, the segment engine (engine.go): a WAL, memtables
// and immutable segment files written through an fsx.FS. Open on a
// directory persists to it; New runs the same engine over a fresh
// in-memory fsx.Mem. Queries, puts, seals and retention take the same
// code either way; since nothing an in-memory store writes can outlive
// the process, it skips only what serves a reopen: the WAL's bytes, the
// memtable's encoded copies and older generations. So only a store in a
// directory can be checkpointed: a checkpoint is a pinned manifest
// generation (Checkpoint/LoadGeneration), and there is no other way to
// copy a store out and back in.
// Either way documents come back in canonical form: float64 numbers,
// RFC 3339 strings for times, nested map[string]any and []any.
package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Document is one stored record. Values should be JSON-representable
// (string, float64, int, int64, bool, time.Time, nested maps/slices).
type Document map[string]any

// Hit is one search result.
type Hit struct {
	// ID is the document identifier within its index.
	ID string
	// Doc is the stored document.
	Doc Document
}

// Store is a collection of named indices. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	indices map[string]*Index
	eng     *engine
}

// New creates an empty store that keeps its files in memory: the segment
// engine over a fresh fsx.Mem. It is not Persistent.
func New() *Store {
	s, err := Open(Options{})
	if err != nil {
		// Opening over an empty in-memory filesystem touches no device.
		panic(err)
	}
	return s
}

// Index returns the named index, creating it on first use (as
// Elasticsearch auto-creates indices on write). Lookups share the read
// lock; only a creation takes the write lock, and re-checks under it.
func (s *Store) Index(name string) *Index {
	s.mu.RLock()
	ix, ok := s.indices[name]
	s.mu.RUnlock()
	if ok {
		return ix
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix, ok := s.indices[name]; ok {
		return ix
	}
	e := s.eng
	e.mu.Lock()
	ix = e.ensureIndexLocked(name)
	e.logLocked(walRecord{Op: walMkIx, Ix: name})
	e.mu.Unlock()
	return ix
}

// Indices lists existing index names, sorted.
func (s *Store) Indices() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.indices))
	for name := range s.indices {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DeleteIndex drops an index and reports whether it existed.
func (s *Store) DeleteIndex(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, ok := s.indices[name]
	if !ok {
		return false
	}
	e := s.eng
	e.mu.Lock()
	e.logLocked(walRecord{Op: walDelIx, Ix: name})
	e.detachLocked(ix)
	e.mu.Unlock()
	delete(s.indices, name)
	return true
}

// Index is one named document collection. It is safe for concurrent use.
// Its documents live in the memtable (mem) until a seal writes them into
// a segment; refs locates every live document in one or the other.
type Index struct {
	name string
	eng  *engine
	mu   sync.RWMutex
	// order is the scan order: every live id by ascending ord, which is
	// insertion order (a replaced id keeps its slot). Unsorted scans
	// follow it.
	order []string
	seq   uint64
	// evicted counts the documents age retention dropped with their
	// segments.
	evicted uint64
	refs    map[string]ref
	mem     map[string]memDoc
	segs    []*segment
	// dead collects ids deleted since the last manifest whose older
	// copies may live in segments; sealed as tombstones.
	dead    map[string]bool
	nextOrd uint64
	// dropped marks a detached (DeleteIndex'd) index: stale handles keep
	// working in memory but no longer log to the WAL.
	dropped bool
	// sealing marks an index the seal in flight writes a segment for: a
	// delete must leave a tombstone even while it has no segments yet.
	sealing bool
}

// Evicted returns how many documents age retention has dropped.
func (ix *Index) Evicted() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.evicted
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Put stores a document under the given ID, replacing any previous
// version.
func (ix *Index) Put(id string, doc Document) { ix.put(id, doc, false) }

// PutAuto stores a document under a generated ID and returns the ID.
func (ix *Index) PutAuto(doc Document) string { return ix.put("", doc, true) }

// PutBatch stores docs under generated IDs, in order, with the outcome of
// one PutAuto per document, but takes the locks once for the whole batch:
// every document is encoded before the locks are taken, then the batch is
// applied and logged with one spill check and one seal check. The store keeps the maps it is given: the caller must not
// modify them afterwards. Documents already in canonical form (float64
// numbers, RFC 3339 strings for times) are stored without a second map
// being built.
func (ix *Index) PutBatch(docs []Document) {
	if len(docs) == 0 {
		return
	}
	e := ix.eng
	type encoded struct {
		md  memDoc
		err error
	}
	enc := make([]encoded, len(docs))
	for i, doc := range docs {
		enc[i].md, enc[i].err = encodeOwned(doc)
	}
	e.mu.Lock()
	ix.mu.Lock()
	for i := range enc {
		ix.seq++
		id := autoID(ix.name, ix.seq)
		ix.putLocked(id, enc[i].md, enc[i].err)
	}
	ix.mu.Unlock()
	e.spillLocked()
	job := e.maybeSealLocked()
	e.mu.Unlock()
	e.launch(job)
}

// autoID is the ID PutAuto and PutBatch give the document numbered seq.
func autoID(name string, seq uint64) string {
	return name + "-" + strconv.FormatUint(seq, 10)
}

// Get retrieves a document by ID.
func (ix *Index) Get(id string) (Document, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	r, ok := ix.refs[id]
	if !ok {
		return nil, false
	}
	return ix.fetch(id, r, true)
}

// Delete removes a document and reports whether it existed.
func (ix *Index) Delete(id string) bool {
	e := ix.eng
	e.mu.Lock()
	ix.mu.Lock()
	ok := ix.applyDelete(id)
	if ok && !ix.dropped {
		e.logLocked(walRecord{Op: walDel, Ix: ix.name, ID: id})
	}
	ix.mu.Unlock()
	e.mu.Unlock()
	return ok
}

// Count returns the number of documents.
func (ix *Index) Count() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.refs)
}

// Query selects documents. Zero-valued criteria are ignored.
type Query struct {
	// Term requires exact equality on every listed field.
	Term map[string]any

	// RangeField, when set, constrains a numeric or time field to
	// [RangeMin, RangeMax] (either bound may be nil for open ranges).
	RangeField string
	RangeMin   any
	RangeMax   any

	// SortBy orders results by a field (ascending unless Desc).
	SortBy string
	Desc   bool

	// Limit caps the number of hits (0 = unlimited).
	Limit int
}

// Search returns the matching documents. A sorted, limited search takes
// the top-k path (searchTopLocked); any other search, and one whose keys
// are not all of one kind, scans in scan order and sorts.
func (ix *Index) Search(q Query) []Hit {
	ix.mu.RLock()
	if q.SortBy != "" && q.Limit > 0 {
		if top, ok := ix.searchTopLocked(q); ok {
			ix.mu.RUnlock()
			return top
		}
	}
	var hits []Hit
	ix.scanLocked(q, true, func(id string, doc Document) {
		hits = append(hits, Hit{ID: id, Doc: doc})
	})
	ix.mu.RUnlock()
	return sortAndLimitHits(hits, q)
}

// sortAndLimitHits applies the query's sort and limit to hits gathered
// in scan order: the full stable sort, for unlimited searches and for
// keys the selector (topk.go) cannot order. Its order is the selector's:
// by key, ties by scan position, both reversed when descending.
func sortAndLimitHits(hits []Hit, q Query) []Hit {
	n := len(hits)
	if q.Limit > 0 && n > q.Limit {
		n = q.Limit
	}
	if q.SortBy == "" || n == 0 {
		return hits[:n]
	}
	s := hitSorter{keys: make([]any, len(hits)), perm: make([]int, len(hits)), desc: q.Desc}
	for i, h := range hits {
		s.keys[i] = h.Doc[q.SortBy]
		s.perm[i] = i
	}
	sort.Stable(s)
	out := make([]Hit, n)
	for i := range out {
		out[i] = hits[s.perm[i]]
	}
	return out
}

// hitSorter sorts scan positions by a sort key read from each hit once,
// not once per comparison. It swaps positions, not hits, so the sort
// writes no pointers.
type hitSorter struct {
	keys []any
	perm []int
	desc bool
}

func (s hitSorter) Len() int { return len(s.perm) }

func (s hitSorter) Less(i, j int) bool {
	a, b := s.perm[i], s.perm[j]
	c := compareValues(s.keys[a], s.keys[b])
	if c == 0 {
		c = a - b
	}
	if s.desc {
		return c > 0
	}
	return c < 0
}

func (s hitSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }

// CountWhere returns the number of matching documents without
// materializing them.
func (ix *Index) CountWhere(q Query) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	ix.scanLocked(q, false, func(string, Document) { n++ })
	return n
}

// Histogram buckets matching documents by a time field into fixed
// intervals, returning bucket start times (sorted) and counts — the
// aggregation behind the dashboard's anomaly timeline (Figure 6).
func (ix *Index) Histogram(q Query, timeField string, interval time.Duration) ([]time.Time, []int) {
	if interval <= 0 {
		return nil, nil
	}
	counts := make(map[int64]int)
	ix.mu.RLock()
	ix.scanLocked(q, false, func(_ string, doc Document) {
		if t, ok := asTime(doc[timeField]); ok {
			counts[t.UnixNano()/int64(interval)]++
		}
	})
	ix.mu.RUnlock()

	buckets := make([]int64, 0, len(counts))
	for b := range counts {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
	times := make([]time.Time, len(buckets))
	out := make([]int, len(buckets))
	for i, b := range buckets {
		times[i] = time.Unix(0, b*int64(interval)).UTC()
		out[i] = counts[b]
	}
	return times, out
}

// TermBucket is one result row of a Terms aggregation.
type TermBucket struct {
	// Value is the field value (stringified).
	Value string
	// Count is how many matching documents carry it.
	Count int
}

// Terms aggregates matching documents by the distinct values of a field,
// most frequent first (the Elasticsearch terms aggregation the dashboard
// uses for per-type anomaly counts).
func (ix *Index) Terms(q Query, field string, limit int) []TermBucket {
	counts := make(map[string]int)
	ix.mu.RLock()
	ix.scanLocked(q, false, func(_ string, doc Document) {
		if v, ok := doc[field]; ok {
			counts[fmt.Sprint(v)]++
		}
	})
	ix.mu.RUnlock()

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

func matches(doc Document, q Query) bool {
	for field, want := range q.Term {
		if compareValues(doc[field], want) != 0 {
			return false
		}
	}
	if q.RangeField != "" {
		v, ok := doc[q.RangeField]
		if !ok {
			return false
		}
		if q.RangeMin != nil && compareValues(v, q.RangeMin) < 0 {
			return false
		}
		if q.RangeMax != nil && compareValues(v, q.RangeMax) > 0 {
			return false
		}
	}
	return true
}

// compareValues imposes a total order across the value kinds the store
// accepts: numbers compare numerically, times chronologically, everything
// else by string form.
func compareValues(a, b any) int {
	if ta, ok := asTime(a); ok {
		if tb, ok := asTime(b); ok {
			switch {
			case ta.Before(tb):
				return -1
			case ta.After(tb):
				return 1
			default:
				return 0
			}
		}
	}
	if na, ok := asFloat(a); ok {
		if nb, ok := asFloat(b); ok {
			switch {
			case na < nb:
				return -1
			case na > nb:
				return 1
			default:
				return 0
			}
		}
	}
	sa, sb := sprint(a), sprint(b)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	default:
		return 0
	}
}

func asFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}

func asTime(v any) (time.Time, bool) {
	switch t := v.(type) {
	case time.Time:
		return t, true
	case string:
		if maybeRFC3339(t) {
			if parsed, err := time.Parse(time.RFC3339Nano, t); err == nil {
				return parsed, true
			}
		}
	}
	return time.Time{}, false
}

// maybeRFC3339 is a necessary condition for time.Parse(time.RFC3339Nano,
// s) to succeed — at least "2006-01-02T1:04:05Z" long, with the date's
// separators and the 'T' at their fixed offsets — so the strings that
// are not times skip the parse.
func maybeRFC3339(s string) bool {
	return len(s) >= len("2006-01-02T1:04:05Z") && s[4] == '-' && s[7] == '-' && s[10] == 'T'
}

// sprint is fmt.Sprint, sparing the reflection for strings.
func sprint(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

func cloneDoc(doc Document) Document {
	out := make(Document, len(doc))
	for k, v := range doc {
		out[k] = v
	}
	return out
}
