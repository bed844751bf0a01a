// Seal and compaction: the single commit path of the persistent engine.
// Every durable state change beyond a WAL append — memtable seals,
// compaction rewrites, age-based segment drops — funnels through
// sealLocked, which stages new segment files, writes the next manifest
// generation, moves CURRENT, and only then mutates in-memory state and
// GCs. The crash invariant falls out of the ordering: any failure before
// the CURRENT swap leaves generation G and wal-G fully authoritative,
// and stray staged files are swept by a later GC.
package store

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"loglens/internal/fsx"
)

// sealPlan parameterizes one commit.
type sealPlan struct {
	// policy applies the compaction policy per index (too many segments
	// or too many dead documents → rewrite instead of append).
	policy bool
	// compactAll forces a full rewrite of every index (manual Compact).
	compactAll bool
	// drop lists age-retention victim segments per index; always a
	// prefix of the index's segment list (buckets are monotone).
	drop map[*Index]map[*segment]bool
}

// stagedIndex is the per-index outcome computed during staging.
type stagedIndex struct {
	ix      *Index
	newSeg  *segment // nil when nothing was written
	data    []byte   // encoded newSeg bytes (written before manifest)
	compact bool     // newSeg replaces all segments
	memIDs  []string // ids sealed out of the memtable (incremental)
	// evicted is the age-drop eviction delta: how many live documents
	// the dropped segments held. Zero means no id is orphaned.
	evicted uint64
	segs    []manifestSegment
	keep    []*segment // surviving old segments, in order
}

// needsCompact reports whether the compaction policy wants a rewrite.
func (e *engine) needsCompact(pe *persistIndex, addingSeg bool) bool {
	total, live, tombs := 0, 0, 0
	for _, sg := range pe.segs {
		total += sg.footer.Count
		live += sg.live
		tombs += sg.tombs
	}
	n := len(pe.segs)
	if addingSeg {
		n++
	}
	if n > e.opts.MaxSegments {
		return true
	}
	dead := total - live
	if total > 0 && float64(dead)/float64(total) >= e.opts.CompactFrac {
		return true
	}
	// Tombstone-only garbage with nothing live pinning it.
	if total > 0 && live == 0 && tombs > 0 {
		return true
	}
	return false
}

// sealLocked is the commit path. Caller holds e.mu. The in-memory state
// is only mutated after CURRENT points at the new generation.
func (e *engine) sealLocked(plan sealPlan) error {
	if err := e.flushWALLocked(); err != nil {
		return err
	}
	changed := len(e.wal) > 0
	for _, victims := range plan.drop {
		if len(victims) > 0 {
			changed = true
		}
	}
	if !changed {
		return nil
	}

	now := e.clk.Now().Truncate(e.opts.BucketDuration)
	ordered := append([]*Index(nil), e.indices...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].name < ordered[j].name })

	newGen := e.gen + 1
	m := &manifest{
		Generation: newGen,
		WAL:        walName(newGen),
		Pins:       append([]uint64(nil), e.pins...),
	}
	var staged []*stagedIndex
	for _, ix := range ordered {
		st, err := e.stageIndex(ix, plan, now)
		if err != nil {
			e.setErr(err)
			return err
		}
		staged = append(staged, st)
		m.Indices = append(m.Indices, manifestIndex{
			Name:      ix.name,
			Seq:       ix.seq,
			Evicted:   ix.evicted + st.evicted,
			Retention: ix.retention,
			Watermark: ix.pe.watermark,
			NextOrd:   ix.pe.nextOrd,
			Segments:  st.segs,
		})
	}
	m.NextSeg = e.nextSeg

	// Write staged segment files, then the manifest, then CURRENT.
	for _, st := range staged {
		if st.newSeg == nil {
			continue
		}
		if err := fsx.WriteFileAtomic(e.fs, e.path(st.newSeg.file), st.data, 0o644); err != nil {
			e.setErr(err)
			return err
		}
	}
	data, err := encodeManifest(m)
	if err != nil {
		e.setErr(err)
		return err
	}
	if err := fsx.WriteFileAtomic(e.fs, e.path(manifestName(newGen)), data, 0o644); err != nil {
		e.setErr(err)
		return err
	}
	if err := fsx.WriteFileAtomic(e.fs, e.path("CURRENT"), []byte(manifestName(newGen)+"\n"), 0o644); err != nil {
		e.setErr(err)
		return err
	}

	// Committed: fold the staged state in under each index's write lock.
	for _, st := range staged {
		e.commitIndex(st)
	}
	e.gen = newGen
	e.manifests[newGen] = m
	// A GC'd past lineage may have left a stale WAL under the new name.
	e.fs.Remove(e.path(walName(newGen)))
	e.resetWALLocked(m.WAL)
	e.flushes++
	e.setErr(nil)
	e.gcLocked()
	return nil
}

// stageIndex computes one index's next segment list without mutating
// anything. e.mu excludes all writers, so pe state is stable to read.
func (e *engine) stageIndex(ix *Index, plan sealPlan, bucket time.Time) (*stagedIndex, error) {
	pe := ix.pe
	st := &stagedIndex{ix: ix}
	victims := plan.drop[ix]
	for _, sg := range pe.segs {
		if victims[sg] {
			st.evicted += uint64(sg.live)
		}
	}

	compact := plan.compactAll || (plan.policy && e.needsCompact(pe, len(pe.mem) > 0 || len(pe.dead) > 0))
	if compact {
		st.compact = true
		docs := make([]segDoc, 0, len(ix.order))
		for _, id := range ix.order {
			r := pe.refs[id]
			if r.seg != nil && victims[r.seg] {
				continue
			}
			sd := segDoc{ID: id, Ord: r.ord}
			if r.seg == nil {
				md := pe.mem[id]
				sd.Doc, sd.raw = md.doc, md.raw
			} else {
				var err error
				sd.Doc, err = r.seg.fetchDoc(r)
				if err != nil {
					return nil, fmt.Errorf("store: compact %q: %w", ix.name, err)
				}
			}
			docs = append(docs, sd)
		}
		if len(docs) > 0 {
			if err := e.stageSegment(st, docs, bucket); err != nil {
				return nil, err
			}
		}
		e.compactions++
		return st, nil
	}

	// Incremental: survivors keep their slots; memtable + tombstones
	// seal into one appended segment.
	for _, sg := range pe.segs {
		if victims[sg] {
			continue
		}
		if sg.live == 0 && sg.tombs == 0 {
			// Fully shadowed and pinning nothing: drop from the new
			// generation.
			continue
		}
		st.keep = append(st.keep, sg)
		st.segs = append(st.segs, manifestSegment{
			File: sg.file, Bytes: sg.bytes, CRC: sg.crc, Count: sg.footer.Count, Bucket: sg.bucket,
		})
	}
	if len(pe.mem) > 0 || len(pe.dead) > 0 {
		docs := make([]segDoc, 0, len(pe.dead)+len(pe.mem))
		for id := range pe.dead {
			if _, back := pe.mem[id]; !back {
				docs = append(docs, segDoc{ID: id, Del: true})
			}
		}
		sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
		// The scan order is ascending by ord and holds every memtable id;
		// new ids sit at its tail, so walking back from the end finds
		// them all after about len(pe.mem) steps when nothing older was
		// replaced.
		st.memIDs = make([]string, len(pe.mem))
		n := len(pe.mem)
		for i := len(ix.order) - 1; i >= 0 && n > 0; i-- {
			if _, ok := pe.mem[ix.order[i]]; ok {
				n--
				st.memIDs[n] = ix.order[i]
			}
		}
		for _, id := range st.memIDs {
			md := pe.mem[id]
			docs = append(docs, segDoc{ID: id, Ord: pe.refs[id].ord, Doc: md.doc, raw: md.raw})
		}
		if len(docs) > 0 {
			if err := e.stageSegment(st, docs, bucket); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// stageSegment encodes docs into a new segment file (not yet written).
func (e *engine) stageSegment(st *stagedIndex, docs []segDoc, bucket time.Time) error {
	data, ft, err := encodeSegment(docs)
	if err != nil {
		return err
	}
	sg := &segment{
		file:   e.segFileName(st.ix.name),
		bytes:  int64(len(data)),
		crc:    crc32.ChecksumIEEE(data),
		bucket: bucket,
		footer: ft,
	}
	for i := range docs {
		if docs[i].Del {
			sg.tombs++
		}
	}
	st.newSeg = sg
	st.data = data
	st.segs = append(st.segs, manifestSegment{
		File: sg.file, Bytes: sg.bytes, CRC: sg.crc, Count: ft.Count, Bucket: sg.bucket,
	})
	return nil
}

// commitIndex folds a staged result into live state under the index's
// write lock: victims evicted, shadowed segments dropped, memtable refs
// re-pointed into the new segment.
func (e *engine) commitIndex(st *stagedIndex) {
	ix := st.ix
	pe := ix.pe
	ix.mu.Lock()
	defer ix.mu.Unlock()

	if st.newSeg != nil {
		fh, err := e.fs.Open(e.path(st.newSeg.file))
		if err != nil {
			// The file was just written; failure to reopen is a disk
			// fault. Refs below still point at it; reads will error and
			// be counted.
			e.noteReadErr(err)
		} else {
			st.newSeg.fh = fh
		}
	}

	old := pe.segs
	if st.compact {
		if st.newSeg != nil {
			st.newSeg.live = st.newSeg.footer.Count
			for i := range st.newSeg.footer.Entries {
				en := &st.newSeg.footer.Entries[i]
				pe.refs[en.ID] = ref{ord: en.Ord, seg: st.newSeg, off: en.Off, length: en.Len}
			}
			pe.segs = []*segment{st.newSeg}
		} else {
			pe.segs = nil
		}
		// Every live id was merged into newSeg; anything still pointing
		// at an old segment was an age-retention victim — evict it.
		if st.evicted > 0 {
			evictOrphansLocked(ix, func(r ref) bool { return r.seg == nil || r.seg == st.newSeg })
		}
		clear(pe.mem)
		clear(pe.dead)
		e.segsDropped += uint64(len(old))
		for _, sg := range old {
			sg.close()
		}
		return
	}

	keepSet := make(map[*segment]bool, len(st.keep)+1)
	for _, sg := range st.keep {
		keepSet[sg] = true
	}
	if st.newSeg != nil {
		for i := range st.newSeg.footer.Entries {
			en := &st.newSeg.footer.Entries[i]
			if en.Del {
				continue
			}
			pe.refs[en.ID] = ref{ord: en.Ord, seg: st.newSeg, off: en.Off, length: en.Len}
			st.newSeg.live++
		}
		keepSet[st.newSeg] = true
	}
	if st.evicted > 0 {
		evictOrphansLocked(ix, func(r ref) bool { return r.seg == nil || keepSet[r.seg] })
	}
	newSegs := make([]*segment, 0, len(st.keep)+1)
	newSegs = append(newSegs, st.keep...)
	if st.newSeg != nil {
		newSegs = append(newSegs, st.newSeg)
	}
	for _, sg := range old {
		if !keepSet[sg] {
			e.segsDropped++
			sg.close()
		}
	}
	pe.segs = newSegs
	clear(pe.mem)
	clear(pe.dead)
}

// evictOrphansLocked drops every id whose ref fails keep — the ids whose
// only copy sat in an age-dropped segment. They leave the scan order and
// count as evicted, exactly like FIFO retention. It walks the whole scan
// order, so commitIndex calls it only when a dropped segment held live
// documents; every other seal stays linear in the memtable.
func evictOrphansLocked(ix *Index, keep func(ref) bool) {
	pe := ix.pe
	out := ix.order[:0]
	for _, id := range ix.order {
		r := pe.refs[id]
		if keep(r) {
			out = append(out, id)
			continue
		}
		delete(pe.refs, id)
		delete(pe.mem, id)
		delete(pe.dead, id)
		ix.evicted++
	}
	ix.order = out
}
