// Store-level surface of the persistent engine: durability (Sync/Flush),
// checkpoint generations (Checkpoint/LoadGeneration — the incremental
// hooks internal/recovery drives), lifecycle (Close/Abort), manual
// maintenance (Compact/ApplyRetention), and observability (Stats, served
// by the dashboard at /api/storage). Every method is a cheap no-op or
// ErrNotPersistent on an in-memory store, so callers can hold one *Store
// type either way.
package store

import (
	"errors"
	"fmt"
	"sort"

	"loglens/internal/fsx"
)

// ErrNotPersistent is returned by persistence-only operations on an
// in-memory store.
var ErrNotPersistent = errors.New("store: not a persistent store")

// Persistent reports whether the store is backed by the segment engine.
func (s *Store) Persistent() bool { return s.eng != nil }

// Generation returns the current manifest generation (0 when in-memory).
func (s *Store) Generation() uint64 {
	if s.eng == nil {
		return 0
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.eng.gen
}

// Sync makes every acknowledged mutation durable in the WAL. This is the
// engine's fsync point: a crash after a successful Sync replays every
// mutation made before it.
func (s *Store) Sync() error {
	if s.eng == nil {
		return nil
	}
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
	if s.eng == nil {
		return nil
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.eng.sealLocked(sealPlan{})
}

// Compact rewrites every index into a single segment each, resolving
// tombstones and shadowed documents.
func (s *Store) Compact() error {
	if s.eng == nil {
		return nil
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.eng.sealLocked(sealPlan{compactAll: true})
}

// ApplyRetention runs one age-based retention pass at the engine clock's
// current time (the background loop's tick, callable manually).
func (s *Store) ApplyRetention() error {
	if s.eng == nil {
		return nil
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.eng.retentionTickLocked(s.eng.clk.Now())
}

// Checkpoint seals the store (compaction policy applied) and returns the
// committed generation, pinning it so GC keeps it restorable. This is
// what makes pipeline checkpoints incremental: the checkpoint records
// the generation number; the immutable segment files are shared, not
// copied.
func (s *Store) Checkpoint() (uint64, error) {
	if s.eng == nil {
		return 0, ErrNotPersistent
	}
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.sealLocked(sealPlan{policy: true}); err != nil {
		return 0, err
	}
	e.pinLocked(e.gen)
	return e.gen, nil
}

// LoadGeneration rewinds the store to a pinned manifest generation — the
// restore half of Checkpoint. The restored state is committed as a fresh
// generation (same segments, empty WAL) so the on-disk lineage converges
// with memory: replayed post-checkpoint traffic lands in the new WAL and
// regenerates identical auto-assigned ids from the restored sequence
// counters.
func (s *Store) LoadGeneration(gen uint64) error {
	if s.eng == nil {
		return ErrNotPersistent
	}
	e := s.eng
	s.mu.Lock()
	defer s.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
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
		for _, sg := range ix.pe.segs {
			sg.close()
		}
		pe := ix.pe
		pe.segs, pe.watermark, pe.nextOrd = nil, 0, 0
		pe.refs = make(map[string]ref)
		pe.mem = make(map[string]memDoc)
		pe.dead = make(map[string]bool)
		ix.order = ix.order[:0]
		ix.seq, ix.retention, ix.evicted = 0, 0, 0
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
	e.pinLocked(gen)
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
	e.walFile = m2.WAL
	e.walOps, e.walPend, e.walOnDisk, e.walDirty = nil, nil, 0, false
	e.manifests[newGen] = m2
	e.setErr(nil)
	e.gcLocked()
	return nil
}

// Close seals outstanding state and releases the engine. The store must
// not be used afterwards.
func (s *Store) Close() error {
	if s.eng == nil {
		return nil
	}
	e := s.eng
	e.stopLoops()
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.sealLocked(sealPlan{})
	for _, ix := range e.indices {
		for _, sg := range ix.pe.segs {
			sg.close()
		}
	}
	return err
}

// Abort releases the engine without flushing anything — the crash-
// simulation half of Close, used by Pipeline.Kill. Unsynced mutations
// are lost, exactly as a real crash would lose them.
func (s *Store) Abort() {
	if s.eng == nil {
		return
	}
	e := s.eng
	e.stopLoops()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ix := range e.indices {
		for _, sg := range ix.pe.segs {
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
	Retention    int    `json:"retention,omitempty"`
}

// Stats is the storage health snapshot served at /api/storage and fed to
// the storage health probe.
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
	SegmentsSkipped uint64       `json:"segments_skipped,omitempty"`
	SegmentDocsRead uint64       `json:"segment_docs_read,omitempty"`
	ReadErrors      uint64       `json:"read_errors,omitempty"`
	LastError       string       `json:"last_error,omitempty"`
	Indices         []IndexStats `json:"indices,omitempty"`
}

// Stats snapshots storage health for both modes.
func (s *Store) Stats() Stats {
	if s.eng == nil {
		st := Stats{}
		s.mu.RLock()
		names := make([]string, 0, len(s.indices))
		for name := range s.indices {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ix := s.indices[name]
			ix.mu.RLock()
			st.Indices = append(st.Indices, IndexStats{
				Name: name, Docs: len(ix.docs), Evicted: ix.evicted, Retention: ix.retention,
			})
			ix.mu.RUnlock()
		}
		s.mu.RUnlock()
		return st
	}
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Persistent:      true,
		Dir:             e.dir,
		Generation:      e.gen,
		WALBytes:        e.walOnDisk,
		WALPending:      len(e.walPend),
		WALDirty:        e.walDirty,
		Flushes:         e.flushes,
		Compactions:     e.compactions,
		SegmentsDropped: e.segsDropped,
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
		pe := ix.pe
		is := IndexStats{
			Name: ix.name, Docs: len(ix.order), MemDocs: len(pe.mem),
			Segments: len(pe.segs), Evicted: ix.evicted, Retention: ix.retention,
		}
		for _, sg := range pe.segs {
			is.SegmentBytes += sg.bytes
			is.DeadDocs += sg.footer.Count - sg.live
		}
		st.Indices = append(st.Indices, is)
	}
	return st
}
