// The persistent engine: an append-only segment-file store behind the
// unchanged Index API. Architecture (bitcask-meets-LSM, sized for the
// LogLens workload of append-heavy logs/anomalies plus small hot model
// documents):
//
//   - Every mutation is framed into the current WAL (wal.go) and applied
//     to a per-index memtable. Sync() is the durability point.
//   - Seals move memtables into immutable segment files (segment.go),
//     written atomically, then commit a new manifest generation and move
//     CURRENT (manifest.go). A crash at any step leaves the previous
//     generation plus its WAL fully intact.
//   - Queries read the merged view: memtable documents plus segment
//     documents fetched by directory offset, in the exact insertion order
//     the in-memory engine would use, with footer statistics skipping
//     segments that provably cannot match. A sorted, limited search
//     (searchTopLocked) also leaves unread the segments whose sort-field
//     bounds cannot place a document among its hits.
//   - Compaction and age-based retention (compact.go, retention.go)
//     replace whole segments in the next manifest; checkpoint restore
//     re-points at a pinned older generation (incremental checkpoints).
//
// Locking: engine.mu is the write lock (all mutations, seals, GC), taken
// before any Index lock; Index locks alone guard reads. lastErr lives
// under its own leaf mutex so read paths can record disk errors without
// touching engine.mu.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/clock"
	"loglens/internal/fsx"
)

// Options configures a persistent store opened with Open.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// FS is the filesystem seam (fsx.OS when nil); chaos.FaultFS in the
	// crash tests.
	FS fsx.FS
	// Clock drives seal-time bucket stamps and the background loops.
	Clock clock.Clock
	// Retention, when positive, drops whole segments older than this age
	// (by bucket) at retention ticks. Zero keeps everything.
	Retention time.Duration
	// RetentionExempt lists index names age-based retention never
	// touches (model storage must outlive log storage).
	RetentionExempt []string
	// BucketDuration is the segment time-bucket width (default 1h).
	BucketDuration time.Duration
	// FlushBytes seals the WAL into segments once it grows past this
	// (default 4 MiB).
	FlushBytes int64
	// WALBufferBytes is how many encoded bytes may sit in memory before
	// an append reaches the file (default 32 KiB). Sync always drains.
	WALBufferBytes int
	// MaxSegments per index before a seal compacts instead of appending
	// (default 8).
	MaxSegments int
	// CompactFrac is the dead-document fraction past which a seal
	// compacts an index (default 0.5).
	CompactFrac float64
	// Keep is how many manifest generations survive GC beyond pinned
	// checkpoint generations (default 4).
	Keep int
	// FlushInterval / CompactInterval / RetentionInterval enable the
	// background loops when positive; zero leaves the engine purely
	// caller-driven (tests drive it via Sync/Flush/ticks).
	FlushInterval     time.Duration
	CompactInterval   time.Duration
	RetentionInterval time.Duration
}

func (o *Options) defaults() {
	if o.FS == nil {
		o.FS = fsx.OS{}
	}
	if o.Clock == nil {
		o.Clock = clock.New()
	}
	if o.BucketDuration <= 0 {
		o.BucketDuration = time.Hour
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = 4 << 20
	}
	if o.WALBufferBytes <= 0 {
		o.WALBufferBytes = 32 << 10
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8
	}
	if o.CompactFrac <= 0 {
		o.CompactFrac = 0.5
	}
	if o.Keep <= 0 {
		o.Keep = 4
	}
}

// ref locates one live document: in the memtable (seg nil) or framed at
// [off, off+length) of a sealed segment.
type ref struct {
	ord    uint64
	seg    *segment
	off    int64
	length int32
}

// persistIndex is the per-index persistent state hanging off an Index.
type persistIndex struct {
	eng  *engine
	refs map[string]ref
	mem  map[string]memDoc
	segs []*segment
	// dead collects ids deleted since the last manifest whose older
	// copies may live in segments; sealed as tombstones.
	dead map[string]bool
	// watermark: every ord below it has been evicted (count-cap FIFO or
	// Load replacement); segment entries below it are dropped at open.
	watermark uint64
	nextOrd   uint64
	// dropped marks a detached (DeleteIndex'd) index: stale handles keep
	// working in memory but no longer log to the WAL.
	dropped bool
}

// memDoc is one memtable document: the canonical form queries read, and
// the JSON bytes it was encoded to (nil when it has none), which the WAL
// logged and the seal writes out again as they are.
type memDoc struct {
	doc Document
	raw []byte
}

type engine struct {
	fs   fsx.FS
	dir  string
	clk  clock.Clock
	opts Options
	st   *Store

	mu        sync.Mutex
	indices   []*Index
	byName    map[string]*Index
	gen       uint64
	nextSeg   uint64
	walFile   string
	walOps    []walRecord
	walPend   []byte
	walOnDisk int64
	walDirty  bool
	manifests map[uint64]*manifest
	pins      []uint64

	flushes     uint64
	compactions uint64
	segsDropped uint64

	segsSkipped atomic.Uint64
	segDocsRead atomic.Uint64
	readErrs    atomic.Uint64

	errMu   sync.Mutex
	lastErr error

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Open opens (or creates) a persistent store in opts.Dir. The returned
// Store serves the same API as New(); Close seals and releases it.
func Open(opts Options) (*Store, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, errors.New("store: open: empty data dir")
	}
	e := &engine{
		fs:        opts.FS,
		dir:       opts.Dir,
		clk:       opts.Clock,
		opts:      opts,
		byName:    make(map[string]*Index),
		manifests: make(map[uint64]*manifest),
		stop:      make(chan struct{}),
	}
	s := &Store{indices: make(map[string]*Index), eng: e}
	e.st = s
	if err := e.fs.MkdirAll(e.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", e.dir, err)
	}
	if err := e.fs.MkdirAll(filepath.Join(e.dir, "seg"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", e.dir, err)
	}
	if err := e.load(); err != nil {
		return nil, err
	}
	e.startLoops()
	return s, nil
}

func (e *engine) path(rel string) string {
	return filepath.Join(e.dir, filepath.FromSlash(rel))
}

// load reads CURRENT, rebuilds state from the live manifest, and replays
// the WAL tail. Called single-threaded from Open.
func (e *engine) load() error {
	cur, err := e.fs.ReadFile(e.path("CURRENT"))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: open: CURRENT: %w", err)
		}
		return e.bootstrap()
	}
	gen, ok := parseManifestGen(strings.TrimSpace(string(cur)))
	if !ok {
		return fmt.Errorf("store: open: CURRENT names no manifest: %q", cur)
	}
	e.scanManifests()
	m := e.manifests[gen]
	if m == nil {
		return fmt.Errorf("store: open: current manifest %s missing or corrupt", manifestName(gen))
	}
	e.gen = gen
	e.nextSeg = m.NextSeg
	e.walFile = m.WAL
	e.pins = append([]uint64(nil), m.Pins...)
	for i := range m.Indices {
		mi := &m.Indices[i]
		ix := e.ensureIndexLocked(mi.Name)
		if err := e.loadIndex(ix, mi); err != nil {
			return err
		}
	}
	return e.replayWAL()
}

// bootstrap writes the first (empty) generation so every later path can
// assume a live manifest exists.
func (e *engine) bootstrap() error {
	m := &manifest{Generation: 1, WAL: walName(1), NextSeg: 1}
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	if err := fsx.WriteFileAtomic(e.fs, e.path(manifestName(1)), data, 0o644); err != nil {
		return fmt.Errorf("store: bootstrap: %w", err)
	}
	if err := fsx.WriteFileAtomic(e.fs, e.path("CURRENT"), []byte(manifestName(1)+"\n"), 0o644); err != nil {
		return fmt.Errorf("store: bootstrap: %w", err)
	}
	e.gen, e.nextSeg, e.walFile = 1, 1, walName(1)
	e.manifests[1] = m
	return nil
}

// scanManifests decodes every manifest file on disk into e.manifests;
// undecodable non-current files are simply GC fodder.
func (e *engine) scanManifests() {
	entries, err := e.fs.ReadDir(e.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		gen, ok := parseManifestGen(ent.Name())
		if !ok {
			continue
		}
		data, err := e.fs.ReadFile(e.path(ent.Name()))
		if err != nil {
			continue
		}
		m, err := decodeManifest(data)
		if err != nil || m.Generation != gen {
			continue
		}
		e.manifests[gen] = m
	}
}

// loadIndex rebuilds one index's directory from its manifest entry:
// segments processed oldest to newest, newer entries shadowing older
// ones, tombstones erasing, watermarked ords dropped.
func (e *engine) loadIndex(ix *Index, mi *manifestIndex) error {
	pe := ix.pe
	ix.seq = mi.Seq
	ix.evicted = mi.Evicted
	ix.retention = mi.Retention
	pe.watermark = mi.Watermark
	pe.nextOrd = mi.NextOrd
	pe.segs = pe.segs[:0]
	pe.refs = make(map[string]ref)
	pe.mem = make(map[string]memDoc)
	pe.dead = make(map[string]bool)
	for j := range mi.Segments {
		sg, err := e.openSegment(mi.Segments[j])
		if err != nil {
			return fmt.Errorf("store: open index %q: %w", ix.name, err)
		}
		for k := range sg.footer.Entries {
			en := &sg.footer.Entries[k]
			if en.Del {
				sg.tombs++
				if old, ok := pe.refs[en.ID]; ok {
					if old.seg != nil {
						old.seg.live--
					}
					delete(pe.refs, en.ID)
				}
				continue
			}
			if en.Ord < pe.watermark {
				continue
			}
			if old, ok := pe.refs[en.ID]; ok && old.seg != nil {
				old.seg.live--
			}
			pe.refs[en.ID] = ref{ord: en.Ord, seg: sg, off: en.Off, length: en.Len}
			sg.live++
		}
		pe.segs = append(pe.segs, sg)
	}
	rebuildOrder(ix)
	return nil
}

// rebuildOrder derives the scan order (ascending ord) from the directory.
func rebuildOrder(ix *Index) {
	pe := ix.pe
	ix.order = ix.order[:0]
	for id := range pe.refs {
		ix.order = append(ix.order, id)
	}
	sort.Slice(ix.order, func(i, j int) bool {
		return pe.refs[ix.order[i]].ord < pe.refs[ix.order[j]].ord
	})
}

// openSegment opens a sealed segment file and decodes its footer via the
// trailer, without reading document records.
func (e *engine) openSegment(ms manifestSegment) (*segment, error) {
	fh, err := e.fs.Open(e.path(ms.File))
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", ms.File, err)
	}
	var magic [8]byte
	if _, err := fh.ReadAt(magic[:], 0); err != nil || string(magic[:]) != segMagic {
		fh.Close()
		return nil, fmt.Errorf("store: segment %s: %w", ms.File, errBadMagic)
	}
	tailLen := int64(64 << 10)
	if tailLen > ms.Bytes {
		tailLen = ms.Bytes
	}
	tail := make([]byte, tailLen)
	if _, err := fh.ReadAt(tail, ms.Bytes-tailLen); err != nil {
		fh.Close()
		return nil, fmt.Errorf("store: segment %s: read trailer: %w", ms.File, err)
	}
	ft, ftOff, err := decodeFooter(ms.Bytes, tail, ms.Bytes-tailLen)
	if errors.Is(err, errShortTail) {
		tail = make([]byte, ms.Bytes-ftOff)
		if _, rerr := fh.ReadAt(tail, ftOff); rerr != nil {
			fh.Close()
			return nil, fmt.Errorf("store: segment %s: read footer: %w", ms.File, rerr)
		}
		ft, _, err = decodeFooter(ms.Bytes, tail, ftOff)
	}
	if err != nil {
		fh.Close()
		return nil, fmt.Errorf("store: segment %s: %w", ms.File, err)
	}
	return &segment{
		file: ms.File, bytes: ms.Bytes, crc: ms.CRC, bucket: ms.Bucket,
		footer: ft, fh: fh,
	}, nil
}

// replayWAL applies the valid prefix of the current WAL on top of the
// manifest state; a torn tail marks the WAL dirty for atomic rewrite.
func (e *engine) replayWAL() error {
	data, err := e.fs.ReadFile(e.path(e.walFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: open: wal %s: %w", e.walFile, err)
	}
	recs, valid := decodeWAL(data)
	e.walOps = recs
	e.walOnDisk = int64(valid)
	e.walDirty = valid < len(data)
	for i := range recs {
		e.applyRecord(&recs[i])
	}
	return nil
}

// applyRecord replays one WAL record. Mutation helpers are shared with
// the live write path so replay is bit-identical.
func (e *engine) applyRecord(rec *walRecord) {
	switch rec.Op {
	case walMkIx:
		e.ensureIndexLocked(rec.Ix)
	case walDelIx:
		if ix := e.byName[rec.Ix]; ix != nil {
			e.detachLocked(ix)
			delete(e.st.indices, rec.Ix)
		}
	case walPut:
		ix := e.ensureIndexLocked(rec.Ix)
		var doc Document
		if err := json.Unmarshal(rec.Doc, &doc); err != nil {
			return
		}
		ix.pe.applyPut(ix, rec.ID, rec.Ord, memDoc{doc: doc, raw: rec.Doc})
		ix.seq = rec.Seq
	case walDel:
		if ix := e.byName[rec.Ix]; ix != nil {
			ix.pe.applyDelete(ix, rec.ID)
		}
	case walRetn:
		if ix := e.byName[rec.Ix]; ix != nil {
			ix.pe.applyWatermark(ix, rec.W, rec.Ev)
		}
	case walCap:
		if ix := e.byName[rec.Ix]; ix != nil {
			ix.retention = rec.Cap
			ix.pe.enforceRetentionLocked(ix, false)
		}
	case walLoad:
		ix := e.ensureIndexLocked(rec.Ix)
		var docs map[string]Document
		if err := json.Unmarshal(rec.Doc, &docs); err != nil {
			return
		}
		ix.pe.applyLoad(ix, docs)
	}
}

// ensureIndexLocked returns the named index, creating and registering it
// (engine + store maps) if missing. Caller holds e.mu (or is
// single-threaded in Open); s.mu must already be held or uncontended.
func (e *engine) ensureIndexLocked(name string) *Index {
	if ix := e.byName[name]; ix != nil {
		return ix
	}
	ix := newIndex(name)
	e.attachLocked(ix)
	e.st.indices[name] = ix
	return ix
}

// attachLocked wires a freshly created Index into the engine.
func (e *engine) attachLocked(ix *Index) {
	ix.pe = &persistIndex{
		eng:  e,
		refs: make(map[string]ref),
		mem:  make(map[string]memDoc),
		dead: make(map[string]bool),
	}
	e.indices = append(e.indices, ix)
	e.byName[ix.name] = ix
}

// detachLocked removes an index from the engine (DeleteIndex / delix
// replay). Stale handles keep serving their in-memory view but stop
// logging; segment handles stay open so in-flight readers are unharmed
// (GC may unlink the files underneath, which POSIX reads tolerate).
func (e *engine) detachLocked(ix *Index) {
	for i, other := range e.indices {
		if other == ix {
			e.indices = append(e.indices[:i], e.indices[i+1:]...)
			break
		}
	}
	delete(e.byName, ix.name)
	ix.mu.Lock()
	ix.pe.dropped = true
	ix.mu.Unlock()
}

// setErr / takeErr manage the sticky last-error surfaced by Stats and
// the storage health probe. Leaf lock: safe from any path.
func (e *engine) setErr(err error) {
	e.errMu.Lock()
	e.lastErr = err
	e.errMu.Unlock()
}

func (e *engine) getErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.lastErr
}

func (e *engine) noteReadErr(err error) {
	e.readErrs.Add(1)
	e.setErr(err)
}

// logLocked frames a record into the WAL buffer, spilling to disk past
// the buffer threshold. Append errors mark the WAL dirty (repaired by
// atomic rewrite at the next flush) — the mutation itself stays applied;
// durability is only promised at Sync.
func (e *engine) logLocked(rec walRecord) {
	e.walOps = append(e.walOps, rec)
	var err error
	e.walPend, err = encodeWAL(e.walPend, e.walOps[len(e.walOps)-1:])
	if err != nil {
		e.setErr(err)
		return
	}
	if len(e.walPend) >= e.opts.WALBufferBytes {
		if err := e.flushWALLocked(); err == nil {
			e.setErr(nil)
		}
	}
}

// flushWALLocked makes every logged record durable in the WAL file:
// append the pending buffer, or — after a torn append — rewrite the whole
// file atomically from the in-memory record log.
func (e *engine) flushWALLocked() error {
	if e.walDirty {
		return e.rewriteWALLocked()
	}
	if len(e.walPend) == 0 {
		return nil
	}
	if err := e.fs.Append(e.path(e.walFile), e.walPend, 0o644); err != nil {
		// The file may now hold a torn tail; only an atomic rewrite can
		// be trusted after this.
		e.walDirty = true
		e.setErr(err)
		return err
	}
	e.walOnDisk += int64(len(e.walPend))
	e.walPend = nil
	return nil
}

func (e *engine) rewriteWALLocked() error {
	buf, err := encodeWAL(nil, e.walOps)
	if err != nil {
		e.setErr(err)
		return err
	}
	if err := fsx.WriteFileAtomic(e.fs, e.path(e.walFile), buf, 0o644); err != nil {
		e.setErr(err)
		return err
	}
	e.walOnDisk = int64(len(buf))
	e.walPend = nil
	e.walDirty = false
	return nil
}

// maybeSealLocked triggers a seal when the WAL outgrows FlushBytes.
func (e *engine) maybeSealLocked() {
	if e.walOnDisk+int64(len(e.walPend)) < e.opts.FlushBytes {
		return
	}
	if err := e.sealLocked(sealPlan{}); err != nil {
		e.setErr(err)
	}
}

// segFileName mints the next segment file name (relative, slash-form).
func (e *engine) segFileName(ixName string) string {
	name := fmt.Sprintf("seg/%06d-%s.seg", e.nextSeg, url.PathEscape(ixName))
	e.nextSeg++
	return name
}

// gcLocked drops manifest generations beyond Keep (sparing pins), then
// sweeps files no retained manifest references. Best-effort: a failed
// remove is retried at the next GC.
func (e *engine) gcLocked() {
	gens := make([]uint64, 0, len(e.manifests))
	for g := range e.manifests {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	retained := make(map[uint64]bool, len(gens))
	for i, g := range gens {
		if i < e.opts.Keep {
			retained[g] = true
		}
	}
	for _, g := range e.pins {
		if _, ok := e.manifests[g]; ok {
			retained[g] = true
		}
	}
	for g := range e.manifests {
		if !retained[g] {
			delete(e.manifests, g)
		}
	}
	refFiles := map[string]bool{e.walFile: true}
	for _, m := range e.manifests {
		refFiles[m.WAL] = true
		for i := range m.Indices {
			for _, sg := range m.Indices[i].Segments {
				refFiles[sg.File] = true
			}
		}
	}
	if entries, err := e.fs.ReadDir(e.dir); err == nil {
		for _, ent := range entries {
			name := ent.Name()
			switch {
			case strings.HasSuffix(name, ".tmp"):
				e.fs.Remove(e.path(name))
			case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") && !refFiles[name]:
				e.fs.Remove(e.path(name))
			default:
				if gen, ok := parseManifestGen(name); ok && e.manifests[gen] == nil {
					e.fs.Remove(e.path(name))
				}
			}
		}
	}
	if entries, err := e.fs.ReadDir(filepath.Join(e.dir, "seg")); err == nil {
		for _, ent := range entries {
			rel := "seg/" + ent.Name()
			if !refFiles[rel] {
				e.fs.Remove(e.path(rel))
			}
		}
	}
}

// pinLocked remembers gen as checkpoint-referenced; the last two pins are
// kept, mirroring recovery's keep-2 checkpoint GC.
func (e *engine) pinLocked(gen uint64) {
	e.pins = append(e.pins, gen)
	if len(e.pins) > 2 {
		e.pins = e.pins[len(e.pins)-2:]
	}
}

func (e *engine) startLoops() {
	if e.opts.FlushInterval <= 0 && e.opts.CompactInterval <= 0 &&
		(e.opts.RetentionInterval <= 0 || e.opts.Retention <= 0) {
		return
	}
	e.wg.Add(1)
	go e.loop()
}

// loop is the background maintenance goroutine on the injected clock:
// periodic WAL flush, compaction-policy seals, and age-based retention.
func (e *engine) loop() {
	defer e.wg.Done()
	var flushC, compactC, retainC <-chan time.Time
	if e.opts.FlushInterval > 0 {
		t := e.clk.NewTicker(e.opts.FlushInterval)
		defer t.Stop()
		flushC = t.C()
	}
	if e.opts.CompactInterval > 0 {
		t := e.clk.NewTicker(e.opts.CompactInterval)
		defer t.Stop()
		compactC = t.C()
	}
	if e.opts.RetentionInterval > 0 && e.opts.Retention > 0 {
		t := e.clk.NewTicker(e.opts.RetentionInterval)
		defer t.Stop()
		retainC = t.C()
	}
	for {
		select {
		case <-e.stop:
			return
		case <-flushC:
			e.mu.Lock()
			if err := e.flushWALLocked(); err == nil {
				e.setErr(nil)
			}
			e.mu.Unlock()
		case <-compactC:
			e.mu.Lock()
			if err := e.sealLocked(sealPlan{policy: true}); err != nil {
				e.setErr(err)
			}
			e.mu.Unlock()
		case <-retainC:
			e.mu.Lock()
			if err := e.retentionTickLocked(e.clk.Now()); err != nil {
				e.setErr(err)
			}
			e.mu.Unlock()
		}
	}
}

func (e *engine) stopLoops() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
}

// --- persistent Index mutations -------------------------------------

// put is the persistent Put/PutAuto body.
func (pe *persistIndex) put(ix *Index, id string, doc Document, auto bool) string {
	e := pe.eng
	raw, cdoc, cerr := encodeDoc(doc)
	e.mu.Lock()
	ix.mu.Lock()
	if auto {
		ix.seq++
		id = ix.name + "-" + strconv.FormatUint(ix.seq, 10)
	}
	var ord uint64
	if old, ok := pe.refs[id]; ok {
		ord = old.ord
	} else {
		ord = pe.nextOrd
	}
	if cerr != nil {
		// Unencodable document: stays queryable in memory, cannot be
		// made durable. Surface through Stats/health.
		pe.applyPut(ix, id, ord, memDoc{doc: cloneDoc(doc)})
		e.setErr(cerr)
	} else {
		pe.applyPut(ix, id, ord, memDoc{doc: cdoc, raw: raw})
		if !pe.dropped {
			e.logLocked(walRecord{Op: walPut, Ix: ix.name, ID: id, Ord: ord, Seq: ix.seq, Doc: raw})
		}
	}
	pe.enforceRetentionLocked(ix, !pe.dropped)
	ix.mu.Unlock()
	e.maybeSealLocked()
	e.mu.Unlock()
	return id
}

// applyPut installs a canonical document into the memtable, preserving
// the scan-order slot (and ord) of a replaced id. Shared with replay.
func (pe *persistIndex) applyPut(ix *Index, id string, ord uint64, doc memDoc) {
	if old, ok := pe.refs[id]; ok {
		if old.seg != nil {
			old.seg.live--
		}
		pe.refs[id] = ref{ord: old.ord}
	} else {
		pe.refs[id] = ref{ord: ord}
		ix.order = append(ix.order, id)
	}
	pe.mem[id] = doc
	if ord >= pe.nextOrd {
		pe.nextOrd = ord + 1
	}
}

// del is the persistent Delete body.
func (pe *persistIndex) del(ix *Index, id string) bool {
	e := pe.eng
	e.mu.Lock()
	ix.mu.Lock()
	ok := pe.applyDelete(ix, id)
	if ok && !pe.dropped {
		e.logLocked(walRecord{Op: walDel, Ix: ix.name, ID: id})
	}
	ix.mu.Unlock()
	e.mu.Unlock()
	return ok
}

func (pe *persistIndex) applyDelete(ix *Index, id string) bool {
	r, ok := pe.refs[id]
	if !ok {
		return false
	}
	delete(pe.refs, id)
	delete(pe.mem, id)
	if r.seg != nil {
		r.seg.live--
	}
	if len(pe.segs) > 0 {
		// An older copy may live in some segment; a tombstone at the
		// next seal keeps it dead across reopen.
		pe.dead[id] = true
	}
	for i, oid := range ix.order {
		if oid == id {
			ix.order = append(ix.order[:i], ix.order[i+1:]...)
			break
		}
	}
	return true
}

// enforceRetentionLocked applies the count cap exactly like the oracle:
// FIFO eviction off the order front, watermark advanced past the evicted
// ords, one retn record summarizing the batch.
func (pe *persistIndex) enforceRetentionLocked(ix *Index, logIt bool) {
	if ix.retention <= 0 {
		return
	}
	evictedAny := false
	for len(ix.order) > ix.retention {
		id := ix.order[0]
		ix.order = ix.order[1:]
		r := pe.refs[id]
		delete(pe.refs, id)
		delete(pe.mem, id)
		delete(pe.dead, id)
		if r.seg != nil {
			r.seg.live--
		}
		ix.evicted++
		pe.watermark = r.ord + 1
		evictedAny = true
	}
	if evictedAny && logIt && !pe.dropped {
		pe.eng.logLocked(walRecord{Op: walRetn, Ix: ix.name, W: pe.watermark, Ev: ix.evicted})
	}
}

// applyWatermark replays a retn record: evict every ord below w.
func (pe *persistIndex) applyWatermark(ix *Index, w, ev uint64) {
	for len(ix.order) > 0 {
		id := ix.order[0]
		r := pe.refs[id]
		if r.ord >= w {
			break
		}
		ix.order = ix.order[1:]
		delete(pe.refs, id)
		delete(pe.mem, id)
		delete(pe.dead, id)
		if r.seg != nil {
			r.seg.live--
		}
	}
	if w > pe.watermark {
		pe.watermark = w
	}
	ix.evicted = ev
}

// setRetention is the persistent SetRetention body.
func (pe *persistIndex) setRetention(ix *Index, max int) {
	e := pe.eng
	e.mu.Lock()
	ix.mu.Lock()
	ix.retention = max
	if !pe.dropped {
		e.logLocked(walRecord{Op: walCap, Ix: ix.name, Cap: max})
	}
	pe.enforceRetentionLocked(ix, !pe.dropped)
	ix.mu.Unlock()
	e.mu.Unlock()
}

// load is the persistent Load body: replace the index wholesale. The
// watermark jumps past every pre-existing ord, which is what keeps old
// segment entries dead across reopen without tombstoning each one.
func (pe *persistIndex) load(ix *Index, data []byte, docs map[string]Document) {
	e := pe.eng
	e.mu.Lock()
	ix.mu.Lock()
	pe.applyLoad(ix, docs)
	if !pe.dropped {
		e.logLocked(walRecord{Op: walLoad, Ix: ix.name, Doc: json.RawMessage(data)})
	}
	ix.mu.Unlock()
	e.maybeSealLocked()
	e.mu.Unlock()
}

func (pe *persistIndex) applyLoad(ix *Index, docs map[string]Document) {
	for _, r := range pe.refs {
		if r.seg != nil {
			r.seg.live--
		}
	}
	pe.refs = make(map[string]ref, len(docs))
	pe.mem = make(map[string]memDoc, len(docs))
	pe.dead = make(map[string]bool)
	pe.watermark = pe.nextOrd
	ix.order = ix.order[:0]
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ord := pe.nextOrd
		pe.nextOrd++
		pe.refs[id] = ref{ord: ord}
		pe.mem[id] = memDoc{doc: docs[id]}
		ix.order = append(ix.order, id)
	}
}

// --- persistent Index reads ------------------------------------------

// fetch resolves one ref to its document. Memtable documents are cloned
// when the caller may retain them; segment fetches are always fresh
// allocations. A failed (corrupt) segment read counts as a read error
// and the document is skipped — detected, never silent.
func (pe *persistIndex) fetch(id string, r ref, retain bool) (Document, bool) {
	if r.seg == nil {
		d := pe.mem[id].doc
		if retain {
			return cloneDoc(d), true
		}
		return d, true
	}
	d, err := r.seg.fetchDoc(r)
	if err != nil {
		pe.eng.noteReadErr(err)
		return nil, false
	}
	return d, true
}

// skipSet returns the segments the footer statistics prove cannot match
// q; nil when nothing is skippable.
func (pe *persistIndex) skipSet(q Query) map[*segment]bool {
	if len(q.Term) == 0 && q.RangeField == "" {
		return nil
	}
	var m map[*segment]bool
	for _, sg := range pe.segs {
		if sg.footer.skippable(q) {
			if m == nil {
				m = make(map[*segment]bool)
			}
			m[sg] = true
			pe.eng.segsSkipped.Add(1)
		}
	}
	return m
}

// scanLocked walks the merged view in scan order, yielding matching
// documents. Caller holds ix.mu (read side).
func (pe *persistIndex) scanLocked(ix *Index, q Query, retain bool, fn func(id string, doc Document)) {
	skip := pe.skipSet(q)
	for _, id := range ix.order {
		r := pe.refs[id]
		if r.seg != nil {
			if skip[r.seg] {
				continue
			}
			pe.eng.segDocsRead.Add(1)
		}
		doc, ok := pe.fetch(id, r, retain)
		if !ok {
			continue
		}
		if matches(doc, q) {
			fn(id, doc)
		}
	}
}

// searchTopLocked serves a sorted, limited search (topk.go) reading as
// few segment documents as the sort allows: the memtable first, then the
// segments in order of their footer bound for the sort field, leaving
// unread (and counted in SegmentsSkipped) each segment whose bound cannot
// beat the current k-th hit. ok is false when the keys are not all of
// one kind; the caller then runs the full scan and sort. Caller holds
// ix.mu (read side).
func (pe *persistIndex) searchTopLocked(q Query) (hits []Hit, ok bool) {
	sel := newTopK(q)
	for id, md := range pe.mem {
		if matches(md.doc, q) {
			sel.offer(md.doc[q.SortBy], pe.refs[id].ord, Hit{ID: id, Doc: md.doc})
		}
	}
	type candidate struct {
		sg      *segment
		best    ranked
		bounded bool
	}
	skip := pe.skipSet(q)
	cands := make([]candidate, 0, len(pe.segs))
	for _, sg := range pe.segs {
		if sg.live > 0 && !skip[sg] {
			c := candidate{sg: sg}
			c.best, c.bounded = sortBound(sg.footer, q)
			cands = append(cands, c)
		}
	}
	// Segments without a bound must be read anyway: first, so the k-th
	// hit is as good as it gets before any bound is tested. Then best
	// bound first.
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		switch {
		case a.bounded != b.bounded:
			return !a.bounded
		case !a.bounded:
			return false
		case a.best.key.kind != b.best.key.kind:
			return a.best.key.kind < b.best.key.kind
		}
		return sel.before(&a.best, &b.best)
	})
	for i := 0; i < len(cands) && !sel.mixed; i++ {
		c := &cands[i]
		if c.bounded && !sel.canBeat(&c.best) {
			pe.eng.segsSkipped.Add(1)
			continue
		}
		pe.offerSegment(sel, c.sg, q)
	}
	if sel.mixed {
		return nil, false
	}
	hits = sel.hits()
	for i := range hits {
		if pe.refs[hits[i].ID].seg == nil {
			hits[i].Doc = cloneDoc(hits[i].Doc)
		}
	}
	return hits, true
}

// offerSegment offers sel the live documents of sg that match q, newest
// first when descending (see Index.Search).
func (pe *persistIndex) offerSegment(sel *topK, sg *segment, q Query) {
	entries := sg.footer.Entries
	for n := range entries {
		i := n
		if q.Desc {
			i = len(entries) - 1 - n
		}
		en := &entries[i]
		if en.Del {
			continue
		}
		r, ok := pe.refs[en.ID]
		if !ok || r.seg != sg || r.off != en.Off {
			continue // shadowed by a newer copy, or gone
		}
		pe.eng.segDocsRead.Add(1)
		doc, ok := pe.fetch(en.ID, r, false)
		if !ok || !matches(doc, q) {
			continue
		}
		if sel.offer(doc[q.SortBy], r.ord, Hit{ID: en.ID, Doc: doc}); sel.mixed {
			return
		}
	}
}

// sortBound is the earliest place in the result order any live document
// of a segment can take: its footer bound for the sort field (TimeMax or
// NumMax descending, TimeMin or NumMin ascending) with its ord bound.
// ok is false unless every document carries the field, all as times or
// all as numbers.
func sortBound(ft *segFooter, q Query) (best ranked, ok bool) {
	st := ft.Fields[q.SortBy]
	if st == nil || st.Count != ft.Count {
		return best, false
	}
	best.pos = ft.MinOrd
	if q.Desc {
		best.pos = ft.MaxOrd
	}
	switch {
	case st.TimeCount == st.Count:
		best.key = timeKey(st.TimeMin)
		if q.Desc {
			best.key = timeKey(st.TimeMax)
		}
	case st.NumCount == st.Count:
		best.key = sortKey{kind: kindNum, num: st.NumMin}
		if q.Desc {
			best.key.num = st.NumMax
		}
	default:
		return best, false
	}
	return best, true
}
