package grok

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Set is a pattern collection — the log-pattern model produced by the
// model builder and consumed by the parser. It supports the model-manager
// operations (add, delete, lookup) and JSON (de)serialization for the
// model storage.
//
// Reads (Get, Len, Patterns, Candidates) may run concurrently with each
// other; mutations (Add, Delete, UnmarshalJSON, editing a member pattern)
// need the set to themselves, as before.
type Set struct {
	patterns map[int]*Pattern
	nextID   int

	// compiled is the read-optimised view the parser's miss path walks,
	// built once per model on first use and dropped by every mutation.
	// compileMu makes concurrent first users (parsers of one model on
	// different partition workers) build it once, not once each.
	compiled  atomic.Pointer[compiledSet]
	compileMu sync.Mutex
}

// compiledSet is an immutable snapshot of a Set's membership: every
// pattern in ID order, and the same patterns split by what log lengths
// they can parse — a wildcard-free pattern parses only logs of exactly its
// own token count, an ANYDATA pattern logs of any count.
type compiledSet struct {
	all   []*Pattern
	exact map[int][]*Pattern // wildcard-free, by token count, ID order
	wild  []*Pattern         // ANYDATA patterns, ID order
}

func (s *Set) compile() *compiledSet {
	if c := s.compiled.Load(); c != nil {
		return c
	}
	s.compileMu.Lock()
	defer s.compileMu.Unlock()
	if c := s.compiled.Load(); c != nil {
		return c
	}
	c := &compiledSet{
		all:   make([]*Pattern, 0, len(s.patterns)),
		exact: make(map[int][]*Pattern),
	}
	for _, p := range s.patterns {
		c.all = append(c.all, p)
	}
	sort.Slice(c.all, func(i, j int) bool { return c.all[i].ID < c.all[j].ID })
	for _, p := range c.all {
		if p.HasAnyData() {
			c.wild = append(c.wild, p)
		} else {
			c.exact[len(p.Tokens)] = append(c.exact[len(p.Tokens)], p)
		}
	}
	s.compiled.Store(c)
	return c
}

// NewSet returns an empty pattern set with IDs starting at 1.
func NewSet() *Set {
	return &Set{patterns: make(map[int]*Pattern), nextID: 1}
}

// Add inserts a pattern, assigning it the next free ID when p.ID is zero,
// and assigns generated field IDs to unnamed fields. It returns the
// pattern's ID.
func (s *Set) Add(p *Pattern) int {
	if p.ID == 0 {
		p.ID = s.nextID
	}
	if p.ID >= s.nextID {
		s.nextID = p.ID + 1
	}
	p.AssignFieldIDs()
	p.precompute()
	p.owner = s
	s.patterns[p.ID] = p
	s.compiled.Store(nil)
	return p.ID
}

// Delete removes the pattern with the given ID. It reports whether a
// pattern was removed.
func (s *Set) Delete(id int) bool {
	if _, ok := s.patterns[id]; !ok {
		return false
	}
	delete(s.patterns, id)
	s.compiled.Store(nil)
	return true
}

// Get returns the pattern with the given ID.
func (s *Set) Get(id int) (*Pattern, bool) {
	p, ok := s.patterns[id]
	return p, ok
}

// Len returns the number of patterns.
func (s *Set) Len() int { return len(s.patterns) }

// Patterns returns all patterns ordered by ID in a fresh slice the
// caller owns.
func (s *Set) Patterns() []*Pattern {
	return append([]*Pattern(nil), s.compile().all...)
}

// Candidates returns the only patterns that can parse a log of n tokens:
// the wildcard-free patterns of exactly n tokens, and the ANYDATA
// patterns. Both slices are in ID order and are shared with every other
// caller — read-only. This is the parser's group-build walk: it never
// visits a wildcard-free pattern of the wrong length, and allocates
// nothing.
func (s *Set) Candidates(n int) (exact, wild []*Pattern) {
	c := s.compile()
	return c.exact[n], c.wild
}

// Clone returns a deep copy of the set, so edits on one copy (model
// updates) never disturb detectors holding the other.
func (s *Set) Clone() *Set {
	c := NewSet()
	c.nextID = s.nextID
	for id, p := range s.patterns {
		q := p.Clone()
		q.owner = c
		c.patterns[id] = q
	}
	return c
}

// setJSON is the serialized form: the GROK text round-trips through
// ParsePattern, keeping stored models human-editable (§II model manager
// lets experts inspect and edit models).
type setJSON struct {
	Patterns []patternJSON `json:"patterns"`
}

type patternJSON struct {
	ID   int    `json:"id"`
	Grok string `json:"grok"`
}

// MarshalJSON serializes the set with each pattern in GROK text form.
func (s *Set) MarshalJSON() ([]byte, error) {
	out := setJSON{Patterns: make([]patternJSON, 0, len(s.patterns))}
	for _, p := range s.Patterns() {
		out.Patterns = append(out.Patterns, patternJSON{ID: p.ID, Grok: p.String()})
	}
	return json.Marshal(out)
}

// UnmarshalJSON deserializes a set produced by MarshalJSON (or edited by a
// user).
func (s *Set) UnmarshalJSON(data []byte) error {
	var in setJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("grok: unmarshal set: %w", err)
	}
	s.patterns = make(map[int]*Pattern, len(in.Patterns))
	s.nextID = 1
	s.compiled.Store(nil)
	for _, pj := range in.Patterns {
		p, err := ParsePattern(pj.ID, pj.Grok)
		if err != nil {
			return err
		}
		s.Add(p)
	}
	return nil
}
