// Seal and compaction: the single commit path of the engine.
// Every durable state change beyond a WAL append — memtable seals,
// compaction rewrites, age-based segment drops — is one seal in three
// steps:
//
//   - the cut (cutLocked, under e.mu) flushes the WAL, records its
//     length, captures what the next generation holds — each index's
//     memtable documents in scan order, its tombstones, the segments it
//     keeps, the manifest fields — and mints the segment names;
//   - the build (build, which needs no engine lock) encodes the
//     segments into one engine-owned buffer, writes the segment files
//     and encodes the manifest;
//   - the commit (commitLocked, under e.mu) writes wal-(G+1) holding
//     only the records logged after the cut, then the manifest, then
//     CURRENT, and only then folds the result into memory and GCs.
//
// The crash invariant falls out of the ordering: until CURRENT moves,
// wal-G still holds every record from before and after the cut, so any
// failure leaves generation G authoritative and stray files from the
// failed seal are swept by a later GC; once it moves, wal-(G+1) holds
// the tail.
//
// The put that pushes the WAL past FlushBytes only cuts and hands the
// build and the commit to a background sealer (sealAsync). Every other
// seal waits for one in flight, then runs all three steps inline with
// e.mu held throughout (sealLocked), so mutations land between a cut and
// its commit only behind a plain memtable seal — never behind a
// compaction or an age drop.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"slices"
	"sort"
	"time"

	"loglens/internal/fsx"
)

// sealPlan parameterizes one seal.
type sealPlan struct {
	// policy applies the compaction policy per index (too many segments
	// or too many dead documents → rewrite instead of append).
	policy bool
	// compactAll forces a full rewrite of every index (manual Compact).
	compactAll bool
	// drop lists age-retention victim segments per index; always a
	// prefix of the index's segment list (buckets are monotone).
	drop map[*Index]map[*segment]bool
	// pin (Checkpoint) commits a generation even when nothing changed
	// and lists it among its own pins, so a reopen right after the
	// checkpoint still keeps it from GC.
	pin bool
}

// sealJob is one seal between its cut and its commit.
type sealJob struct {
	// m is the next generation as of the cut; build fills in the new
	// segments and encodes it into manifest.
	m        *manifest
	manifest []byte
	// walLen is len(e.wal) at the cut: the records after it form
	// wal-(G+1). walSize is e.walSize() at the cut.
	walLen  int
	walSize int64
	bucket  time.Time
	// idx parallels m.Indices.
	idx []*stagedIndex
}

// stagedIndex is one index's share of a seal.
type stagedIndex struct {
	ix *Index
	// docs are the new segment's records, tombstones first; nil when
	// nothing is written. refs[i] is the ref docs[i]'s id held at the
	// cut (zero for a tombstone): the commit re-points only the ids
	// still holding it, and a compaction's build reads the documents
	// that sat in segments through it.
	docs []segDoc
	refs []ref
	file string // the new segment's name, minted at the cut
	// dead is the tombstone set taken at the cut, put back if the seal
	// fails.
	dead map[string]bool
	// evicted is the age-drop eviction delta: how many live documents
	// the dropped segments held. Zero means no id is orphaned.
	evicted uint64
	keep    []*segment        // surviving old segments, in order
	segs    []manifestSegment // keep's entries; build appends newSeg's
	newSeg  *segment          // set by build
}

// needsCompact reports whether the compaction policy wants a rewrite.
func (e *engine) needsCompact(ix *Index, addingSeg bool) bool {
	total, live, tombs := 0, 0, 0
	for _, sg := range ix.segs {
		total += sg.footer.Count
		live += sg.live
		tombs += sg.tombs
	}
	n := len(ix.segs)
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

// compactable reports whether a full rewrite would change ix: it has
// more than one segment, or one that holds tombstones or shadowed
// documents.
func (ix *Index) compactable() bool {
	return len(ix.segs) > 1 || len(ix.segs) == 1 && ix.segs[0].live < ix.segs[0].footer.Count
}

// sealLocked runs one seal inline: it waits for a seal in flight, then
// cuts, builds and commits with e.mu held throughout. Caller holds e.mu.
func (e *engine) sealLocked(plan sealPlan) error {
	e.waitSealLocked()
	job, err := e.cutLocked(plan)
	if job == nil {
		return err
	}
	return e.commitLocked(job, e.build(job))
}

// sealAsync is the background sealer of a seal a put has cut: the build
// runs without the engine lock while puts go on logging behind the cut,
// then the commit takes it.
func (e *engine) sealAsync(job *sealJob) {
	err := e.build(job)
	e.mu.Lock()
	e.commitLocked(job, err)
	e.mu.Unlock()
}

// waitSealLocked blocks until no background seal is in flight. Caller
// holds e.mu, which the wait releases.
func (e *engine) waitSealLocked() {
	for e.sealing != nil {
		e.sealDone.Wait()
	}
}

// cutLocked captures the next generation, returning nil when nothing
// changed since the last commit. Caller holds e.mu.
func (e *engine) cutLocked(plan sealPlan) (*sealJob, error) {
	if err := e.flushWALLocked(); err != nil {
		return nil, err
	}
	changed := e.walSize() > 0 || plan.pin
	for _, victims := range plan.drop {
		if len(victims) > 0 {
			changed = true
		}
	}
	for _, ix := range e.indices {
		if plan.compactAll && ix.compactable() {
			changed = true
		}
	}
	if !changed {
		return nil, nil
	}

	ordered := append([]*Index(nil), e.indices...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].name < ordered[j].name })
	newGen := e.gen + 1
	job := &sealJob{
		m: &manifest{
			Generation: newGen,
			WAL:        walName(newGen),
			Pins:       slices.Clone(e.pins),
		},
		walLen:  len(e.wal),
		walSize: e.walSize(),
		bucket:  e.clk.Now().Truncate(e.opts.BucketDuration),
	}
	if plan.pin {
		job.m.Pins = pinned(e.pins, newGen)
	}
	for _, ix := range ordered {
		st := e.cutIndex(ix, plan)
		job.idx = append(job.idx, st)
		job.m.Indices = append(job.m.Indices, manifestIndex{
			Name:    ix.name,
			Seq:     ix.seq,
			Evicted: ix.evicted + st.evicted,
			NextOrd: ix.nextOrd,
		})
	}
	job.m.NextSeg = e.nextSeg
	return job, nil
}

// cutIndex captures one index's next segment list. Documents that sit
// in segments are read by the build, through their refs.
func (e *engine) cutIndex(ix *Index, plan sealPlan) *stagedIndex {
	st := &stagedIndex{ix: ix}
	victims := plan.drop[ix]
	for _, sg := range ix.segs {
		if victims[sg] {
			st.evicted += uint64(sg.live)
		}
	}
	if len(ix.dead) > 0 {
		st.dead, ix.dead = ix.dead, make(map[string]bool)
	}

	if plan.compactAll || (plan.policy && e.needsCompact(ix, len(ix.mem) > 0 || len(st.dead) > 0)) {
		// Compaction: every live document is rewritten into one segment,
		// which replaces all the old ones.
		e.compactions++
		st.docs = make([]segDoc, 0, len(ix.order))
		st.refs = make([]ref, 0, len(ix.order))
		for _, id := range ix.order {
			r := ix.refs[id]
			if r.seg != nil && victims[r.seg] {
				continue
			}
			st.capture(ix, id, r)
		}
	} else {
		// Incremental: survivors keep their slots; the memtable and the
		// tombstones seal into one appended segment.
		for _, sg := range ix.segs {
			if victims[sg] || sg.live == 0 && sg.tombs == 0 {
				// Dropped by age, or fully shadowed and pinning nothing.
				continue
			}
			st.keep = append(st.keep, sg)
			st.segs = append(st.segs, manifestSegment{
				File: sg.file, Bytes: sg.bytes, CRC: sg.crc, Count: sg.footer.Count, Bucket: sg.bucket,
			})
		}
		st.docs = make([]segDoc, 0, len(st.dead)+len(ix.mem))
		for id := range st.dead {
			if _, back := ix.mem[id]; !back {
				st.docs = append(st.docs, segDoc{ID: id, Del: true})
			}
		}
		sort.Slice(st.docs, func(i, j int) bool { return st.docs[i].ID < st.docs[j].ID })
		tombs := len(st.docs)
		st.refs = make([]ref, tombs, tombs+len(ix.mem))
		// Captured newest first, then put back in scan order.
		ix.memNewestFirst(func(id string, _ memDoc) bool {
			st.capture(ix, id, ix.refs[id])
			return true
		})
		slices.Reverse(st.docs[tombs:])
		slices.Reverse(st.refs[tombs:])
	}
	if len(st.docs) > 0 {
		st.file = e.segFileName(ix.name)
		// A delete from now on may hit a document this seal writes.
		ix.sealing = true
	}
	return st
}

// capture appends id's document as of the cut.
func (st *stagedIndex) capture(ix *Index, id string, r ref) {
	sd := segDoc{ID: id, Ord: r.ord}
	if r.seg == nil {
		md := ix.mem[id]
		sd.Doc, sd.raw, sd.times = md.doc, md.raw, md.times
	}
	st.docs = append(st.docs, sd)
	st.refs = append(st.refs, r)
}

// build encodes and writes the cut's segment files, then encodes the
// manifest. It takes no engine lock: the cut handed it everything it
// reads, and only one seal is ever in flight, so it owns e.segBuf.
func (e *engine) build(job *sealJob) error {
	for i, st := range job.idx {
		if len(st.docs) > 0 {
			if err := e.buildSegment(st, job.bucket); err != nil {
				return err
			}
		}
		job.m.Indices[i].Segments = st.segs
	}
	var err error
	job.manifest, err = encodeManifest(job.m)
	return err
}

// buildSegment writes st's documents as its new segment file. A
// document a compaction reads from a segment takes its keys from that
// segment's sort columns. One read from a segment without columns is
// parsed for its keys, as WAL replay does, when another document of the
// compaction carries keys: otherwise the output would lack the column
// too, and every later compaction would inherit the gap. An index whose
// documents carry no keys (the log archive) parses nothing.
func (e *engine) buildSegment(st *stagedIndex, bucket time.Time) error {
	keyed := false
	for i := range st.docs {
		if r := st.refs[i]; len(st.docs[i].times) > 0 || r.seg != nil && len(r.seg.footer.Sort) > 0 {
			keyed = true
			break
		}
	}
	var keys map[*segment][][]timeField
	for i := range st.docs {
		if r := st.refs[i]; r.seg != nil {
			doc, err := r.seg.fetchDoc(r)
			if err != nil {
				return fmt.Errorf("store: compact %q: %w", st.ix.name, err)
			}
			st.docs[i].Doc = doc
			if len(r.seg.footer.Sort) == 0 {
				if keyed {
					st.docs[i].times = parsedTimes(doc)
				}
				continue
			}
			if keys[r.seg] == nil {
				if keys == nil {
					keys = make(map[*segment][][]timeField)
				}
				keys[r.seg] = r.seg.footer.timesByPos()
			}
			if p := r.seg.footer.position(r.off); p >= 0 {
				st.docs[i].times = keys[r.seg][p]
			}
		}
	}
	data, ft, err := encodeSegment(e.segBuf[:0], st.docs)
	if err != nil {
		return err
	}
	if int64(cap(data)) <= 4*e.opts.FlushBytes {
		// Memtable-sized: the next seal encodes into it again. A large
		// compaction's buffer is left to the garbage collector.
		e.segBuf = data
	}
	sg := &segment{
		file:   st.file,
		bytes:  int64(len(data)),
		crc:    crc32.ChecksumIEEE(data),
		bucket: bucket,
		footer: ft,
	}
	for i := range st.docs {
		if st.docs[i].Del {
			sg.tombs++
		}
	}
	if err := fsx.WriteFileAtomic(e.fs, e.path(sg.file), data, 0o644); err != nil {
		return err
	}
	st.newSeg = sg
	st.segs = append(st.segs, manifestSegment{
		File: sg.file, Bytes: sg.bytes, CRC: sg.crc, Count: ft.Count, Bucket: sg.bucket,
	})
	return nil
}

// commitLocked finishes a built seal: wal-(G+1), manifest and CURRENT
// hit the disk in that order, then memory follows and GC runs. A failed
// build or write abandons the seal, leaving generation G and its WAL
// authoritative. Caller holds e.mu.
func (e *engine) commitLocked(job *sealJob, err error) error {
	defer func() {
		e.sealing = nil
		e.sealDone.Broadcast()
	}()
	if err == nil {
		err = e.publishLocked(job)
	}
	if err != nil {
		e.setErr(err)
		for _, st := range job.idx {
			st.ix.sealing = false
			for id := range st.dead {
				st.ix.dead[id] = true
			}
		}
		return err
	}

	for _, st := range job.idx {
		e.commitIndex(st)
	}
	e.gen = job.m.Generation
	e.manifests[e.gen] = job.m
	e.pins = job.m.Pins
	// Every document the cut captured is re-pointed or replaced by now,
	// so no memtable document still aliases the WAL bytes being
	// overwritten (replayWAL's documents do).
	n := copy(e.wal, e.wal[job.walLen:])
	e.wal = e.wal[:n]
	e.unkept -= job.walSize - int64(job.walLen)
	e.walFile, e.walOnDisk, e.walDirty = job.m.WAL, int64(n), false
	e.flushes++
	e.setErr(nil)
	e.gcLocked()
	return nil
}

// publishLocked writes the WAL tail, the manifest and CURRENT. The tail
// goes to wal-(G+1) before the manifest names it; with no tail, a stale
// file under that name (left by a seal that failed after writing it) is
// removed so replay cannot pick it up.
func (e *engine) publishLocked(job *sealJob) error {
	wal := e.path(job.m.WAL)
	if tail := e.wal[job.walLen:]; len(tail) > 0 {
		if err := fsx.WriteFileAtomic(e.fs, wal, tail, 0o644); err != nil {
			return err
		}
	} else if err := e.fs.Remove(wal); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	gen := job.m.Generation
	if err := fsx.WriteFileAtomic(e.fs, e.path(manifestName(gen)), job.manifest, 0o644); err != nil {
		return err
	}
	return fsx.WriteFileAtomic(e.fs, e.path("CURRENT"), []byte(manifestName(gen)+"\n"), 0o644)
}

// commitIndex folds a committed seal into live state under the index's
// write lock: ids still holding the document the cut captured are
// re-pointed into the new segment, age-drop victims evicted, shadowed
// segments dropped.
func (e *engine) commitIndex(st *stagedIndex) {
	ix := st.ix
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.sealing = false

	keepSet := make(map[*segment]bool, len(st.keep)+1)
	for _, sg := range st.keep {
		keepSet[sg] = true
	}
	newSegs := append(make([]*segment, 0, len(st.keep)+1), st.keep...)
	if sg := st.newSeg; sg != nil {
		fh, err := e.fs.Open(e.path(sg.file))
		if err != nil {
			// The file was just written; failure to reopen is a disk
			// fault. Refs below still point at it; reads will error and
			// be counted.
			e.noteReadErr(err)
		} else {
			sg.fh = fh
		}
		sealed := 0 // memtable documents re-pointed
		for i := range sg.footer.Entries {
			en := &sg.footer.Entries[i]
			if en.Del || ix.refs[en.ID] != st.refs[i] {
				// A tombstone, or replaced, deleted or evicted since the
				// cut.
				continue
			}
			if st.refs[i].seg == nil {
				sealed++
			}
			ix.refs[en.ID] = ref{ord: en.Ord, seg: sg, off: en.Off, length: en.Len}
			sg.live++
		}
		if sealed == len(ix.mem) {
			// The memtable held only sealed documents. Clearing it keeps
			// the map free of the deleted slots that slow later puts.
			clear(ix.mem)
		} else {
			for i := range sg.footer.Entries {
				if id := sg.footer.Entries[i].ID; st.refs[i].seg == nil && ix.refs[id].seg == sg {
					delete(ix.mem, id)
				}
			}
		}
		keepSet[sg] = true
		newSegs = append(newSegs, sg)
	}
	if st.evicted > 0 {
		evictOrphansLocked(ix, func(r ref) bool { return r.seg == nil || keepSet[r.seg] })
	}
	for _, sg := range ix.segs {
		if !keepSet[sg] {
			e.segsDropped++
			sg.close()
		}
	}
	ix.segs = newSegs
}

// evictOrphansLocked drops every id whose ref fails keep — the ids whose
// only copy sat in an age-dropped segment. They leave the scan order and
// count as evicted. It walks the whole scan order, so commitIndex calls
// it only when a dropped segment held live documents; every other seal
// stays linear in the memtable.
func evictOrphansLocked(ix *Index, keep func(ref) bool) {
	out := ix.order[:0]
	for _, id := range ix.order {
		r := ix.refs[id]
		if keep(r) {
			out = append(out, id)
			continue
		}
		delete(ix.refs, id)
		delete(ix.mem, id)
		delete(ix.dead, id)
		ix.evicted++
	}
	ix.order = out
}
