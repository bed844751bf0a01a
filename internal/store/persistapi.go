// Store-level surface of the engine: durability (Sync/Flush), checkpoint
// generations (Checkpoint/LoadGeneration — the store's one checkpoint
// path: internal/recovery records the pinned generation and restores it,
// for a store in a directory only), lifecycle (Close/Abort), manual
// maintenance (Compact/ApplyRetention), and observability (Stats, served
// by the dashboard at /api/storage).
package store

import (
	"fmt"
	"sort"

	"loglens/internal/fsx"
)

// Persistent reports whether the store keeps its files in a directory,
// so that they outlive the process: true for Open on a directory, false
// for New.
func (s *Store) Persistent() bool { return !s.eng.volatile }

// Generation returns the current manifest generation.
func (s *Store) Generation() uint64 {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.eng.gen
}

// Sync writes every mutation made so far to the WAL file. It is the
// engine's acknowledgement point: once it returns nil, a process crash
// (kill -9) and reopen replays every mutation made before it. It does
// not fsync, and neither do the seal's atomic file replacements, so the
// writes may still sit in the OS page cache: an OS crash or power loss
// can lose acknowledged mutations.
func (s *Store) Sync() error {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	err := s.eng.flushWALLocked()
	if err == nil {
		s.eng.setErr(nil)
	}
	return err
}

// Flush seals memtables into segments and commits a new manifest
// generation (a no-op when nothing changed since the last commit).
func (s *Store) Flush() error {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.eng.sealLocked(sealPlan{})
}

// Compact rewrites every index into a single segment each, resolving
// tombstones and shadowed documents.
func (s *Store) Compact() error {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.eng.sealLocked(sealPlan{compactAll: true})
}

// ApplyRetention runs one age-based retention pass at the engine clock's
// current time (the background loop's tick, callable manually).
func (s *Store) ApplyRetention() error {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.eng.retentionTickLocked(s.eng.clk.Now())
}

// Checkpoint seals the store (compaction policy applied) and returns the
// committed generation, pinned in its own manifest so GC keeps it
// restorable, across a reopen too. This is what makes pipeline
// checkpoints incremental: the checkpoint records the generation number;
// the immutable segment files are shared, not copied.
func (s *Store) Checkpoint() (uint64, error) {
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.sealLocked(sealPlan{policy: true, pin: true}); err != nil {
		return 0, err
	}
	return e.gen, nil
}

// LoadGeneration rewinds the store to a pinned manifest generation — the
// restore half of Checkpoint. The restored state is committed as a fresh
// generation (same segments, empty WAL) so the on-disk lineage converges
// with memory: replayed post-checkpoint traffic lands in the new WAL and
// regenerates identical auto-assigned ids from the restored sequence
// counters.
func (s *Store) LoadGeneration(gen uint64) error {
	e := s.eng
	s.mu.Lock()
	defer s.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.waitSealLocked()
	m := e.manifests[gen]
	if m == nil {
		data, err := e.fs.ReadFile(e.path(manifestName(gen)))
		if err != nil {
			return fmt.Errorf("store: load generation %d: %w", gen, err)
		}
		if m, err = decodeManifest(data); err != nil {
			return fmt.Errorf("store: load generation %d: %w", gen, err)
		}
		e.manifests[gen] = m
	}
	// Reset every live index, then rebuild the ones the generation
	// knows; indices born after the cut come back empty.
	for _, ix := range e.indices {
		ix.mu.Lock()
		for _, sg := range ix.segs {
			sg.close()
		}
		ix.segs, ix.nextOrd = nil, 0
		ix.refs = make(map[string]ref)
		ix.mem = make(map[string]memDoc)
		ix.dead = make(map[string]bool)
		ix.order = ix.order[:0]
		ix.seq, ix.evicted = 0, 0
		ix.mu.Unlock()
	}
	for i := range m.Indices {
		mi := &m.Indices[i]
		ix := e.ensureIndexLocked(mi.Name)
		ix.mu.Lock()
		err := e.loadIndex(ix, mi)
		ix.mu.Unlock()
		if err != nil {
			return err
		}
	}
	// Commit the restored state as a new generation past everything the
	// store has ever written, so stale future lineages cannot resurface.
	newGen := e.gen + 1
	for g := range e.manifests {
		if g >= newGen {
			newGen = g + 1
		}
	}
	e.pins = pinned(e.pins, gen)
	nextSeg := e.nextSeg
	if m.NextSeg > nextSeg {
		nextSeg = m.NextSeg
	}
	m2 := &manifest{
		Generation: newGen,
		WAL:        walName(newGen),
		NextSeg:    nextSeg,
		Pins:       append([]uint64(nil), e.pins...),
		Indices:    append([]manifestIndex(nil), m.Indices...),
	}
	data, err := encodeManifest(m2)
	if err != nil {
		return err
	}
	if err := fsx.WriteFileAtomic(e.fs, e.path(manifestName(newGen)), data, 0o644); err != nil {
		return fmt.Errorf("store: load generation %d: %w", gen, err)
	}
	if err := fsx.WriteFileAtomic(e.fs, e.path("CURRENT"), []byte(manifestName(newGen)+"\n"), 0o644); err != nil {
		return fmt.Errorf("store: load generation %d: %w", gen, err)
	}
	e.gen = newGen
	e.nextSeg = nextSeg
	e.fs.Remove(e.path(walName(newGen)))
	e.resetWALLocked(m2.WAL)
	e.manifests[newGen] = m2
	e.setErr(nil)
	e.gcLocked()
	return nil
}

// Close seals outstanding state and releases the engine. The store must
// not be written afterwards. A read of a sealed document then fails on a
// persistent store (its segment files are closed; the failure counts in
// ReadErrors) and still succeeds on an in-memory one.
func (s *Store) Close() error {
	e := s.eng
	e.stopLoops()
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.sealLocked(sealPlan{})
	for _, ix := range e.indices {
		for _, sg := range ix.segs {
			sg.close()
		}
	}
	return err
}

// Abort releases the engine without flushing anything — the crash-
// simulation half of Close, used by Pipeline.Kill. Unsynced mutations
// are lost, exactly as a real crash would lose them. A background seal
// in flight is waited for, so nothing writes to the directory once
// Abort returns.
func (s *Store) Abort() {
	e := s.eng
	e.stopLoops()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.waitSealLocked()
	for _, ix := range e.indices {
		for _, sg := range ix.segs {
			sg.close()
		}
	}
}

// IndexStats is the per-index slice of Stats.
type IndexStats struct {
	Name         string `json:"name"`
	Docs         int    `json:"docs"`
	MemDocs      int    `json:"mem_docs,omitempty"`
	Segments     int    `json:"segments,omitempty"`
	SegmentBytes int64  `json:"segment_bytes,omitempty"`
	DeadDocs     int    `json:"dead_docs,omitempty"`
	Evicted      uint64 `json:"evicted,omitempty"`
}

// Stats is the storage health snapshot served at /api/storage and fed to
// the storage health probe. SealInFlight reports a background seal
// between its cut and its commit; PutWaits counts the puts that waited
// for one because another FlushBytes of WAL had piled up behind it.
type Stats struct {
	Persistent      bool         `json:"persistent"`
	Dir             string       `json:"dir,omitempty"`
	Generation      uint64       `json:"generation,omitempty"`
	WALBytes        int64        `json:"wal_bytes,omitempty"`
	WALPending      int          `json:"wal_pending_bytes,omitempty"`
	WALDirty        bool         `json:"wal_dirty,omitempty"`
	Flushes         uint64       `json:"flushes,omitempty"`
	Compactions     uint64       `json:"compactions,omitempty"`
	SegmentsDropped uint64       `json:"segments_dropped,omitempty"`
	SealInFlight    bool         `json:"seal_in_flight,omitempty"`
	PutWaits        uint64       `json:"put_waits,omitempty"`
	SegmentsSkipped uint64       `json:"segments_skipped,omitempty"`
	SegmentDocsRead uint64       `json:"segment_docs_read,omitempty"`
	ReadErrors      uint64       `json:"read_errors,omitempty"`
	LastError       string       `json:"last_error,omitempty"`
	Indices         []IndexStats `json:"indices,omitempty"`
}

// Stats snapshots storage health.
func (s *Store) Stats() Stats {
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Persistent:      s.Persistent(),
		Dir:             e.dir,
		Generation:      e.gen,
		WALBytes:        e.walOnDisk,
		WALPending:      int(e.walSize() - e.walOnDisk),
		WALDirty:        e.walDirty,
		Flushes:         e.flushes,
		Compactions:     e.compactions,
		SegmentsDropped: e.segsDropped,
		SealInFlight:    e.sealing != nil,
		PutWaits:        e.putWaits,
		SegmentsSkipped: e.segsSkipped.Load(),
		SegmentDocsRead: e.segDocsRead.Load(),
		ReadErrors:      e.readErrs.Load(),
	}
	if err := e.getErr(); err != nil {
		st.LastError = err.Error()
	}
	ordered := append([]*Index(nil), e.indices...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].name < ordered[j].name })
	for _, ix := range ordered {
		is := IndexStats{
			Name: ix.name, Docs: len(ix.order), MemDocs: len(ix.mem),
			Segments: len(ix.segs), Evicted: ix.evicted,
		}
		for _, sg := range ix.segs {
			is.SegmentBytes += sg.bytes
			is.DeadDocs += sg.footer.Count - sg.live
		}
		st.Indices = append(st.Indices, is)
	}
	return st
}
