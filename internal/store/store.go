// Package store is the in-memory document store backing LogLens's three
// storage components — log storage, model storage, and anomaly storage —
// the substitution for Elasticsearch (§II). It offers the surface LogLens
// actually uses: named indices of JSON-like documents, term and range
// queries with sorting and limits, counts, and time-histogram aggregations
// for the dashboard.
package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
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
// New gives the in-memory engine; Open (engine.go) the persistent one —
// both serve the identical API, which is what lets the in-memory engine
// double as the correctness oracle for the segment engine's tests.
type Store struct {
	mu      sync.RWMutex
	indices map[string]*Index
	// eng is the persistent segment engine; nil means in-memory.
	eng *engine
}

// New creates an empty in-memory store.
func New() *Store {
	return &Store{indices: make(map[string]*Index)}
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
	ix = newIndex(name)
	if s.eng != nil {
		s.eng.mu.Lock()
		s.eng.attachLocked(ix)
		s.eng.logLocked(walRecord{Op: walMkIx, Ix: name})
		s.eng.mu.Unlock()
	}
	s.indices[name] = ix
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
	if s.eng != nil {
		s.eng.mu.Lock()
		s.eng.logLocked(walRecord{Op: walDelIx, Ix: name})
		s.eng.detachLocked(ix)
		s.eng.mu.Unlock()
	}
	delete(s.indices, name)
	return true
}

// Index is one named document collection. It is safe for concurrent use.
type Index struct {
	name string
	mu   sync.RWMutex
	docs map[string]Document
	// order preserves insertion order for stable unsorted scans and
	// FIFO retention. In persistent mode it is the merged scan order
	// (ascending ord across memtable and segments).
	order     []string
	seq       uint64
	retention int
	evicted   uint64
	// pe is the persistent-engine state; nil means in-memory.
	pe *persistIndex
}

// SetRetention caps the index at max documents: the oldest documents are
// evicted as new ones arrive (log storage retention — the paper's system
// archives millions of logs per day and cannot keep them forever). Zero
// disables retention.
func (ix *Index) SetRetention(max int) {
	if ix.pe != nil {
		ix.pe.setRetention(ix, max)
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.retention = max
	ix.enforceRetentionLocked()
}

// Evicted returns how many documents retention has dropped.
func (ix *Index) Evicted() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.evicted
}

// enforceRetentionLocked drops the oldest documents past the cap.
func (ix *Index) enforceRetentionLocked() {
	if ix.retention <= 0 {
		return
	}
	for len(ix.order) > ix.retention {
		oldest := ix.order[0]
		ix.order = ix.order[1:]
		delete(ix.docs, oldest)
		ix.evicted++
	}
}

func newIndex(name string) *Index {
	return &Index{name: name, docs: make(map[string]Document)}
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Put stores a document under the given ID, replacing any previous
// version.
func (ix *Index) Put(id string, doc Document) {
	if ix.pe != nil {
		ix.pe.put(ix, id, doc, false)
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, exists := ix.docs[id]; !exists {
		ix.order = append(ix.order, id)
	}
	ix.docs[id] = cloneDoc(doc)
	ix.enforceRetentionLocked()
}

// PutAuto stores a document under a generated ID and returns the ID.
func (ix *Index) PutAuto(doc Document) string {
	if ix.pe != nil {
		return ix.pe.put(ix, "", doc, true)
	}
	ix.mu.Lock()
	ix.seq++
	id := autoID(ix.name, ix.seq)
	if _, exists := ix.docs[id]; !exists {
		ix.order = append(ix.order, id)
	}
	ix.docs[id] = cloneDoc(doc)
	ix.enforceRetentionLocked()
	ix.mu.Unlock()
	return id
}

// PutBatch stores docs under generated IDs, in order, with the outcome of
// one PutAuto per document, but takes the locks once for the whole batch.
// The store keeps the maps it is given: the caller must not modify them
// afterwards. Documents already in the form the persistent engine keeps
// (float64 numbers, RFC 3339 strings for times) are stored without a
// second map being built.
func (ix *Index) PutBatch(docs []Document) {
	if len(docs) == 0 {
		return
	}
	if ix.pe != nil {
		ix.pe.putBatch(ix, docs)
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, doc := range docs {
		ix.seq++
		id := autoID(ix.name, ix.seq)
		_, exists := ix.docs[id]
		if exists && ix.retention > 0 {
			// A replaced id keeps its slot, so retention catches up first
			// (see persistIndex.putBatch).
			ix.enforceRetentionLocked()
			_, exists = ix.docs[id]
		}
		if !exists {
			ix.order = append(ix.order, id)
		}
		ix.docs[id] = doc
	}
	ix.enforceRetentionLocked()
}

// autoID is the ID PutAuto and PutBatch give the document numbered seq.
func autoID(name string, seq uint64) string {
	return name + "-" + strconv.FormatUint(seq, 10)
}

// Get retrieves a document by ID.
func (ix *Index) Get(id string) (Document, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.pe != nil {
		r, ok := ix.pe.refs[id]
		if !ok {
			return nil, false
		}
		return ix.pe.fetch(id, r, true)
	}
	doc, ok := ix.docs[id]
	if !ok {
		return nil, false
	}
	return cloneDoc(doc), true
}

// Delete removes a document and reports whether it existed.
func (ix *Index) Delete(id string) bool {
	if ix.pe != nil {
		return ix.pe.del(ix, id)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docs[id]; !ok {
		return false
	}
	delete(ix.docs, id)
	for i, oid := range ix.order {
		if oid == id {
			ix.order = append(ix.order[:i], ix.order[i+1:]...)
			break
		}
	}
	return true
}

// Count returns the number of documents.
func (ix *Index) Count() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.pe != nil {
		return len(ix.pe.refs)
	}
	return len(ix.docs)
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

// Search returns the matching documents.
func (ix *Index) Search(q Query) []Hit {
	ix.mu.RLock()
	var hits []Hit
	if ix.pe != nil {
		if q.SortBy != "" && q.Limit > 0 {
			if top, ok := ix.pe.searchTopLocked(q); ok {
				ix.mu.RUnlock()
				return top
			}
		}
		ix.pe.scanLocked(ix, q, true, func(id string, doc Document) {
			hits = append(hits, Hit{ID: id, Doc: doc})
		})
		ix.mu.RUnlock()
		return sortAndLimitHits(hits, q)
	}
	// Select the hits under the read lock and copy only those returned:
	// the newest-100 listing over an index of thousands pays 100 copies,
	// not one per match.
	defer ix.mu.RUnlock()
	var sel *topK
	if q.SortBy != "" && q.Limit > 0 {
		sel = newTopK(q)
		// Newest first when descending: on documents inserted roughly in
		// key order the first offers fill the heap with the winners, and
		// most later ones lose a single comparison against its root.
		for n := range ix.order {
			i := n
			if q.Desc {
				i = len(ix.order) - 1 - n
			}
			id := ix.order[i]
			if doc := ix.docs[id]; matches(doc, q) {
				if sel.offer(doc[q.SortBy], uint64(i), Hit{ID: id, Doc: doc}); sel.mixed {
					break
				}
			}
		}
	}
	if sel != nil && !sel.mixed {
		hits = sel.hits()
	} else {
		for _, id := range ix.order {
			if doc := ix.docs[id]; matches(doc, q) {
				hits = append(hits, Hit{ID: id, Doc: doc})
			}
		}
		hits = sortAndLimitHits(hits, q)
	}
	if len(hits) == 0 {
		return nil
	}
	out := make([]Hit, len(hits))
	for i, h := range hits {
		out[i] = Hit{ID: h.ID, Doc: cloneDoc(h.Doc)}
	}
	return out
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
	if ix.pe != nil {
		ix.pe.scanLocked(ix, q, false, func(string, Document) { n++ })
		return n
	}
	for _, doc := range ix.docs {
		if matches(doc, q) {
			n++
		}
	}
	return n
}

// Histogram buckets matching documents by a time field into fixed
// intervals, returning bucket start times (sorted) and counts — the
// aggregation behind the dashboard's anomaly timeline (Figure 6).
func (ix *Index) Histogram(q Query, timeField string, interval time.Duration) ([]time.Time, []int) {
	if interval <= 0 {
		return nil, nil
	}
	ix.mu.RLock()
	counts := make(map[int64]int)
	tally := func(_ string, doc Document) {
		t, ok := asTime(doc[timeField])
		if !ok {
			return
		}
		bucket := t.UnixNano() / int64(interval)
		counts[bucket]++
	}
	if ix.pe != nil {
		ix.pe.scanLocked(ix, q, false, tally)
	} else {
		for _, doc := range ix.docs {
			if matches(doc, q) {
				tally("", doc)
			}
		}
	}
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
	ix.mu.RLock()
	counts := make(map[string]int)
	tally := func(_ string, doc Document) {
		v, ok := doc[field]
		if !ok {
			return
		}
		counts[fmt.Sprint(v)]++
	}
	if ix.pe != nil {
		ix.pe.scanLocked(ix, q, false, tally)
	} else {
		for _, doc := range ix.docs {
			if matches(doc, q) {
				tally("", doc)
			}
		}
	}
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

// Dump serializes the index to JSON ({"id": doc, ...}).
func (ix *Index) Dump() ([]byte, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.pe != nil {
		docs := make(map[string]Document, len(ix.pe.refs))
		for id, r := range ix.pe.refs {
			doc, ok := ix.pe.fetch(id, r, false)
			if !ok {
				return nil, fmt.Errorf("store: dump index %q: unreadable document %q", ix.name, id)
			}
			docs[id] = doc
		}
		return json.Marshal(docs)
	}
	return json.Marshal(ix.docs)
}

// Load replaces the index contents from a Dump.
func (ix *Index) Load(data []byte) error {
	var docs map[string]Document
	if err := json.Unmarshal(data, &docs); err != nil {
		return fmt.Errorf("store: load index %q: %w", ix.name, err)
	}
	if ix.pe != nil {
		ix.pe.load(ix, data, docs)
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.docs = docs
	ix.order = ix.order[:0]
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ix.order = ids
	ix.seq = loadedSeq(ix.name, docs)
	return nil
}

// loadedSeq is an index's auto-ID sequence after a Load of docs: past
// every generated ID the snapshot holds, so PutAuto after a snapshot
// restore never reuses (and silently overwrites) one. Both engines
// rebase on Load, the persistent one also on replay.
func loadedSeq(name string, docs map[string]Document) uint64 {
	seq := uint64(0)
	prefix := name + "-"
	for id := range docs {
		suffix, ok := strings.CutPrefix(id, prefix)
		if !ok {
			continue
		}
		if n, err := strconv.ParseUint(suffix, 10, 64); err == nil && n > seq {
			seq = n
		}
	}
	return seq
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
