package parser

// SavedState is the serializable form of a parser's cumulative counters.
// The group index and preprocessor caches are warm-start optimizations
// that rebuild themselves; only the counters must survive a restart for
// the conservation invariant to hold across checkpoint/restore.
type SavedState struct {
	Stats         Stats          `json:"stats"`
	PatternCounts map[int]uint64 `json:"pattern_counts,omitempty"`
}

// SaveState snapshots the work counters and per-pattern match counts.
func (p *Parser) SaveState() SavedState {
	return SavedState{Stats: p.stats, PatternCounts: p.PatternCounts()}
}

// RestoreState replaces the counters with a saved snapshot. Caches are
// left untouched — they repopulate on the next Parse.
func (p *Parser) RestoreState(s SavedState) {
	p.stats = s.Stats
	p.eachGroup(func(e *groupEntry) { clear(e.hits) })
	p.perPat = make(map[int]uint64, len(s.PatternCounts))
	for id, n := range s.PatternCounts {
		p.perPat[id] = n
	}
}
