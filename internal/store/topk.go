package store

import (
	"cmp"
	"math"
	"sort"
	"strings"
	"time"
)

// Sorted, limited searches. A Search with SortBy and Limit > 0 — the
// dashboard's "newest hundred" — selects its hits with a bounded heap
// instead of sorting every match, parsing each sort key once. Both
// engines share the selector; the persistent one also uses it to leave
// whole segments unread (persistIndex.searchTopLocked).
//
// The result order is stated, not left to the sort algorithm: by key,
// ties by insertion position, both reversed when descending — so a
// descending search lists equal keys newest-inserted first. The selector
// applies it only when every key is of one kind (all times, all numbers
// or all strings, as compareValues compares them). Across kinds
// compareValues is not transitive, and a NaN equals everything; such
// searches fall back to the full stable sort of sortAndLimitHits.

// keyKind is the way compareValues compares a value: as a time, as a
// number, or by its string form.
type keyKind uint8

const (
	kindNone keyKind = iota
	kindTime
	// kindMono is a time carrying a monotonic clock reading (a time.Now
	// of this process): compareValues orders two of those by that
	// reading, and one of those against any other time by the wall
	// clock, so the two time kinds do not mix.
	kindMono
	kindNum
	kindStr
)

// monoBase anchors monotonic keys: t.Sub(monoBase) is t's monotonic
// reading, shifted, when t carries one.
var monoBase = time.Now()

// sortKey is one sort field value, parsed once.
type sortKey struct {
	kind keyKind
	sec  int64
	nsec int32
	num  float64
	str  string
}

// parseKey reads v as compareValues compares it against a value of the
// same kind. ok is false for a NaN, which compares equal to everything.
func parseKey(v any) (k sortKey, ok bool) {
	if t, isTime := asTime(v); isTime {
		if t != t.Round(0) {
			return sortKey{kind: kindMono, sec: int64(t.Sub(monoBase))}, true
		}
		return timeKey(t), true
	}
	if n, isNum := asFloat(v); isNum {
		if math.IsNaN(n) {
			return k, false
		}
		return sortKey{kind: kindNum, num: n}, true
	}
	return sortKey{kind: kindStr, str: sprint(v)}, true
}

// timeKey is the key of a time without a monotonic reading, such as a
// parsed string or a segment footer's bound.
func timeKey(t time.Time) sortKey {
	return sortKey{kind: kindTime, sec: t.Unix(), nsec: int32(t.Nanosecond())}
}

// compare orders two keys of the same kind exactly as compareValues
// orders the values they were parsed from.
func (a sortKey) compare(b sortKey) int {
	switch a.kind {
	case kindTime, kindMono:
		if c := cmp.Compare(a.sec, b.sec); c != 0 {
			return c
		}
		return cmp.Compare(a.nsec, b.nsec)
	case kindNum:
		// Not cmp.Compare: -0 and +0 are equal here, as in compareValues.
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.str, b.str)
	}
}

// ranked is one candidate hit: its key and insertion position (the
// index's scan order — an order index, or the persistent engine's ord).
type ranked struct {
	key sortKey
	pos uint64
	hit Hit
}

// topK selects the first k hits of the result order. Its heap keeps the
// k best candidates seen, the worst of them at the root.
type topK struct {
	k    int
	desc bool
	kind keyKind
	// mixed records a key of a second kind (or one without a single-kind
	// order): the selection is abandoned and the caller falls back.
	mixed bool
	heap  []ranked
}

func newTopK(q Query) *topK { return &topK{k: q.Limit, desc: q.Desc} }

// before reports whether a comes before b in the result order.
func (s *topK) before(a, b *ranked) bool {
	c := a.key.compare(b.key)
	if c == 0 {
		c = cmp.Compare(a.pos, b.pos)
	}
	if s.desc {
		return c > 0
	}
	return c < 0
}

// full reports whether k candidates are held, so the root is the k-th.
func (s *topK) full() bool { return len(s.heap) == s.k }

// offer considers one matching hit whose sort field holds v.
func (s *topK) offer(v any, pos uint64, h Hit) {
	if s.mixed {
		return
	}
	key, ok := parseKey(v)
	if !ok || (s.kind != kindNone && key.kind != s.kind) {
		s.mixed, s.heap = true, nil
		return
	}
	s.kind = key.kind
	r := ranked{key: key, pos: pos, hit: h}
	if !s.full() {
		s.heap = append(s.heap, r)
		s.up(len(s.heap) - 1)
		return
	}
	if s.before(&r, &s.heap[0]) {
		s.heap[0] = r
		s.down(0)
	}
}

// canBeat reports whether a candidate ordered no later than best could
// still enter the selection.
func (s *topK) canBeat(best *ranked) bool {
	return !s.full() || best.key.kind != s.kind || s.before(best, &s.heap[0])
}

// up and down maintain the heap: a parent comes no earlier in the
// result order than its children.
func (s *topK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&s.heap[p], &s.heap[i]) {
			return
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *topK) down(i int) {
	n := len(s.heap)
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && s.before(&s.heap[worst], &s.heap[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		s.heap[i], s.heap[worst] = s.heap[worst], s.heap[i]
		i = worst
	}
}

// hits returns the selection in result order; nil when it is empty.
func (s *topK) hits() []Hit {
	if len(s.heap) == 0 {
		return nil
	}
	sort.Slice(s.heap, func(i, j int) bool { return s.before(&s.heap[i], &s.heap[j]) })
	out := make([]Hit, len(s.heap))
	for i := range s.heap {
		out[i] = s.heap[i].hit
	}
	return out
}
