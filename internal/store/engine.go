// The segment engine: an append-only segment-file store behind the Index
// API, and the store's only engine. Its files go through an fsx.FS: the
// OS in a data directory (Open), or a fresh fsx.Mem (New), which is the
// same engine with nothing persisted; such a volatile store keeps no WAL
// bytes, no encoded memtable copies and one generation, since no reopen
// could read them. Architecture (bitcask-meets-LSM,
// sized for the LogLens workload of append-heavy logs/anomalies plus
// small hot model documents):
//
//   - Every mutation is framed into the current WAL (wal.go) and applied
//     to a per-index memtable. PutBatch logs a whole batch under one
//     take of the locks. Sync() is the acknowledgement point: it writes
//     the pending WAL tail to the file, so an acknowledged mutation
//     survives the process dying (kill -9). It does not fsync — no file
//     in the engine is fsynced — so an OS crash or power loss can still
//     lose acknowledged mutations.
//   - Seals move memtables into immutable segment files (segment.go),
//     written atomically, then commit a new manifest generation and move
//     CURRENT (manifest.go). A crash at any step leaves the previous
//     generation plus its WAL fully intact. The put that pushes the WAL
//     past FlushBytes only cuts the seal under e.mu; a background sealer
//     writes the segments without the lock and commits in one short
//     critical section (compact.go). Puts wait only once another
//     FlushBytes of WAL has piled up behind the seal in flight.
//   - Queries read the merged view: memtable documents plus segment
//     documents fetched by directory offset, in insertion order (the scan
//     order, Index.order), with footer statistics skipping
//     segments that provably cannot match. A sorted, limited search
//     (searchTopLocked) also leaves unread the segments whose sort-field
//     bounds cannot place a document among its hits.
//   - Compaction and age-based retention (compact.go, retention.go)
//     replace whole segments in the next manifest; checkpoint restore
//     re-points at a pinned older generation (incremental checkpoints).
//
// Locking: engine.mu is the write lock (all mutations, the cut and the
// commit of every seal, GC), taken before any Index lock; Index locks
// alone guard reads. lastErr lives under its own leaf mutex so read
// paths can record disk errors without touching engine.mu.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/clock"
	"loglens/internal/fsx"
)

// Options configures a store opened with Open.
type Options struct {
	// Dir is the data directory (created if missing). Empty opens the
	// store over a fresh in-memory fsx.Mem; FS must then be nil.
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
// [off, off+length) of a sealed segment. For a memtable ref, off is
// instead the put's stamp, unique within the engine, so a seal's commit
// tells the document it captured from a later put of the same id.
type ref struct {
	ord    uint64
	seg    *segment
	off    int64
	length int32
}

// memDoc is one memtable document: the canonical form queries read, its
// ord, the JSON bytes it was encoded to (nil when it has none), which
// the WAL logged and the seal writes out again as they are, and the
// recorded keys of its time fields (topk.go).
type memDoc struct {
	doc   Document
	raw   []byte
	ord   uint64
	times []timeField
}

type engine struct {
	fs   fsx.FS
	dir  string
	clk  clock.Clock
	opts Options
	st   *Store
	// volatile marks a store without a directory: nothing it writes can
	// be read after the process ends, so it keeps no WAL bytes (see
	// appendLocked), no encoded bytes in its memtables (putLocked) and
	// one generation.
	volatile bool

	mu        sync.Mutex
	indices   []*Index
	byName    map[string]*Index
	gen       uint64
	nextSeg   uint64
	walFile   string
	walOnDisk int64
	walDirty  bool
	// wal is the generation's WAL as one byte log: wal[:walOnDisk] is on
	// disk, the rest pending. A seal truncates it and keeps the buffer.
	wal []byte
	// unkept counts the bytes of the records a volatile store logged
	// this generation without keeping them; walSize adds it to len(wal).
	unkept int64
	// rec is the record appendLocked frames from: a pointer to a local
	// would escape through frame.Append and cost an allocation per put.
	rec       walRecord
	manifests map[uint64]*manifest
	pins      []uint64
	// stamp numbers memtable puts (see ref).
	stamp uint64

	// sealing is the background seal in flight, between its cut and its
	// commit; sealDone (on mu) is broadcast when it ends. goSeal starts
	// the sealer (a goroutine; tests substitute a stepper).
	sealing  *sealJob
	sealDone sync.Cond
	goSeal   func(func())
	// segBuf is the segment encoding buffer, owned by the one seal that
	// is building.
	segBuf []byte

	flushes     uint64
	compactions uint64
	segsDropped uint64
	putWaits    uint64

	segsSkipped atomic.Uint64
	segDocsRead atomic.Uint64
	readErrs    atomic.Uint64

	errMu   sync.Mutex
	lastErr error

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Open opens (or creates) a store in opts.Dir, persistent unless Dir is
// empty. Close seals and releases it.
func Open(opts Options) (*Store, error) {
	volatile := opts.Dir == ""
	if volatile {
		if opts.FS != nil {
			return nil, errors.New("store: open: an FS needs a Dir")
		}
		opts.FS, opts.Keep = fsx.NewMem(), 1
	}
	opts.defaults()
	e := &engine{
		fs:        opts.FS,
		dir:       opts.Dir,
		volatile:  volatile,
		clk:       opts.Clock,
		opts:      opts,
		byName:    make(map[string]*Index),
		manifests: make(map[uint64]*manifest),
		stop:      make(chan struct{}),
		goSeal:    func(f func()) { go f() },
	}
	e.sealDone.L = &e.mu
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
// ones, tombstones erasing.
func (e *engine) loadIndex(ix *Index, mi *manifestIndex) error {
	ix.seq = mi.Seq
	ix.evicted = mi.Evicted
	ix.nextOrd = mi.NextOrd
	ix.segs = ix.segs[:0]
	ix.refs = make(map[string]ref)
	ix.mem = make(map[string]memDoc)
	ix.dead = make(map[string]bool)
	for j := range mi.Segments {
		sg, err := e.openSegment(mi.Segments[j])
		if err != nil {
			return fmt.Errorf("store: open index %q: %w", ix.name, err)
		}
		for k := range sg.footer.Entries {
			en := &sg.footer.Entries[k]
			if en.Del {
				sg.tombs++
				if old, ok := ix.refs[en.ID]; ok {
					if old.seg != nil {
						old.seg.live--
					}
					delete(ix.refs, en.ID)
				}
				continue
			}
			if old, ok := ix.refs[en.ID]; ok && old.seg != nil {
				old.seg.live--
			}
			ix.refs[en.ID] = ref{ord: en.Ord, seg: sg, off: en.Off, length: en.Len}
			sg.live++
		}
		ix.segs = append(ix.segs, sg)
	}
	rebuildOrder(ix)
	return nil
}

// rebuildOrder derives the scan order (ascending ord) from the directory.
func rebuildOrder(ix *Index) {
	ix.order = ix.order[:0]
	for id := range ix.refs {
		ix.order = append(ix.order, id)
	}
	sort.Slice(ix.order, func(i, j int) bool {
		return ix.refs[ix.order[i]].ord < ix.refs[ix.order[j]].ord
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
	e.wal = data[:valid]
	e.walOnDisk = int64(valid)
	e.walDirty = valid < len(data)
	for i := range recs {
		if err := e.applyRecord(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// applyRecord replays one WAL record. Mutation helpers are shared with
// the live write path so replay is bit-identical. A record whose op it
// does not know fails the open: skipping it would drop a mutation.
func (e *engine) applyRecord(rec *walRecord) error {
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
			return nil
		}
		ix.applyPut(rec.ID, rec.Ord, memDoc{doc: doc, raw: rec.Doc, times: parsedTimes(doc)})
		ix.seq = rec.Seq
	case walDel:
		if ix := e.byName[rec.Ix]; ix != nil {
			ix.applyDelete(rec.ID)
		}
	default:
		return fmt.Errorf("store: open: wal %s: unknown op %q", e.walFile, rec.Op)
	}
	return nil
}

// ensureIndexLocked returns the named index, creating and registering it
// (engine + store maps) if missing. Caller holds e.mu (or is
// single-threaded in Open); s.mu must already be held or uncontended.
func (e *engine) ensureIndexLocked(name string) *Index {
	if ix := e.byName[name]; ix != nil {
		return ix
	}
	ix := &Index{
		name: name,
		eng:  e,
		refs: make(map[string]ref),
		mem:  make(map[string]memDoc),
		dead: make(map[string]bool),
	}
	e.indices = append(e.indices, ix)
	e.byName[name] = ix
	e.st.indices[name] = ix
	return ix
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
	ix.dropped = true
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

// logLocked frames a record into the WAL, spilling the pending tail to
// disk past the buffer threshold.
func (e *engine) logLocked(rec walRecord) {
	e.appendLocked(rec)
	e.spillLocked()
}

// appendLocked frames a record onto the WAL's pending tail. An encode
// error leaves the log as it was and is surfaced through Stats. A
// volatile store only counts the record toward FlushBytes: no reopen
// could replay it.
func (e *engine) appendLocked(rec walRecord) {
	if e.volatile {
		e.unkept += walRecordSize(&rec)
		return
	}
	e.rec = rec
	var err error
	e.wal, err = appendWAL(e.wal, &e.rec)
	e.rec = walRecord{}
	if err != nil {
		e.setErr(err)
	}
}

// spillLocked writes the pending tail once it reaches WALBufferBytes.
// Append errors mark the WAL dirty (repaired by atomic rewrite at the
// next flush) — the mutations stay applied; they are only promised at
// Sync.
func (e *engine) spillLocked() {
	if len(e.wal)-int(e.walOnDisk) >= e.opts.WALBufferBytes {
		if err := e.flushWALLocked(); err == nil {
			e.setErr(nil)
		}
	}
}

// flushWALLocked writes every logged record to the WAL file: append the
// pending tail, or — after a torn append — rewrite the whole file
// atomically from the byte log.
func (e *engine) flushWALLocked() error {
	if e.walDirty {
		return e.rewriteWALLocked()
	}
	pending := e.wal[e.walOnDisk:]
	if len(pending) == 0 {
		return nil
	}
	if err := e.fs.Append(e.path(e.walFile), pending, 0o644); err != nil {
		// The file may now hold a torn tail; only an atomic rewrite can
		// be trusted after this.
		e.walDirty = true
		e.setErr(err)
		return err
	}
	e.walOnDisk = int64(len(e.wal))
	return nil
}

func (e *engine) rewriteWALLocked() error {
	if err := fsx.WriteFileAtomic(e.fs, e.path(e.walFile), e.wal, 0o644); err != nil {
		e.setErr(err)
		return err
	}
	e.walOnDisk = int64(len(e.wal))
	e.walDirty = false
	return nil
}

// walSize is the generation's WAL size, kept or not: what FlushBytes
// is measured against.
func (e *engine) walSize() int64 { return int64(len(e.wal)) + e.unkept }

// resetWALLocked starts an empty WAL for a freshly committed generation,
// keeping the buffer.
func (e *engine) resetWALLocked(file string) {
	e.walFile = file
	e.wal = e.wal[:0]
	e.unkept = 0
	e.walOnDisk = 0
	e.walDirty = false
}

// maybeSealLocked cuts a background seal once the WAL outgrows
// FlushBytes, returning it for the caller to launch after releasing
// e.mu (nil when there is none). With a seal already in flight it waits
// only once another FlushBytes has piled up behind that seal's cut — the
// backlog bound that caps the WAL in memory at about twice FlushBytes.
func (e *engine) maybeSealLocked() *sealJob {
	if e.sealing != nil {
		if e.walSize()-e.sealing.walSize < e.opts.FlushBytes {
			return nil
		}
		e.putWaits++
		e.waitSealLocked()
	}
	if e.walSize() < e.opts.FlushBytes {
		return nil
	}
	job, err := e.cutLocked(sealPlan{})
	if err != nil {
		e.setErr(err)
	}
	e.sealing = job
	return job
}

// launch hands a cut seal to the background sealer. Caller does not hold
// e.mu.
func (e *engine) launch(job *sealJob) {
	if job != nil {
		e.goSeal(func() { e.sealAsync(job) })
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

// pinned is pins with gen added as checkpoint-referenced; the last two
// pins are kept, mirroring recovery's keep-2 checkpoint GC.
func pinned(pins []uint64, gen uint64) []uint64 {
	pins = append(slices.Clone(pins), gen)
	if len(pins) > 2 {
		pins = pins[len(pins)-2:]
	}
	return pins
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

// --- Index mutations -------------------------------------------------

// put is the Put/PutAuto body.
func (ix *Index) put(id string, doc Document, auto bool) string {
	e := ix.eng
	md, cerr := encodeDoc(doc)
	if cerr != nil {
		md.doc = cloneDoc(doc)
	}
	e.mu.Lock()
	ix.mu.Lock()
	if auto {
		ix.seq++
		id = autoID(ix.name, ix.seq)
	}
	ix.putLocked(id, md, cerr)
	ix.mu.Unlock()
	e.spillLocked()
	job := e.maybeSealLocked()
	e.mu.Unlock()
	e.launch(job)
	return id
}

// putLocked installs one encoded document under id and frames its put
// record onto the WAL. A document that failed to encode (err set, md.doc
// the caller's copy) stays queryable in memory but cannot be made
// durable; the error surfaces through Stats and the health probe.
// Caller holds e.mu and ix.mu.
func (ix *Index) putLocked(id string, md memDoc, err error) {
	raw := md.raw
	if ix.eng.volatile {
		md.raw = nil // its seal encodes the document again
	}
	ord := ix.applyPut(id, ix.nextOrd, md)
	switch {
	case err != nil:
		ix.eng.setErr(err)
	case !ix.dropped:
		ix.eng.appendLocked(walRecord{Op: walPut, Ix: ix.name, ID: id, Ord: ord, Seq: ix.seq, Doc: raw})
	}
}

// applyPut installs a canonical document into the memtable, preserving
// the scan-order slot (and ord) of a replaced id, and returns the ord the
// document holds: ord for a new id, the old one for a replaced id.
// Shared with replay.
func (ix *Index) applyPut(id string, ord uint64, doc memDoc) uint64 {
	if old, ok := ix.refs[id]; ok {
		if old.seg != nil {
			old.seg.live--
		}
		ord = old.ord
	} else {
		ix.order = append(ix.order, id)
	}
	ix.eng.stamp++
	ix.refs[id] = ref{ord: ord, off: int64(ix.eng.stamp)}
	doc.ord = ord
	ix.mem[id] = doc
	if ord >= ix.nextOrd {
		ix.nextOrd = ord + 1
	}
	return ord
}

func (ix *Index) applyDelete(id string) bool {
	r, ok := ix.refs[id]
	if !ok {
		return false
	}
	delete(ix.refs, id)
	delete(ix.mem, id)
	if r.seg != nil {
		r.seg.live--
	}
	if len(ix.segs) > 0 || ix.sealing {
		// An older copy may live in some segment, or in the one the seal
		// in flight writes; a tombstone at the next seal keeps it dead
		// across reopen.
		ix.dead[id] = true
	}
	for i, oid := range ix.order {
		if oid == id {
			ix.order = append(ix.order[:i], ix.order[i+1:]...)
			break
		}
	}
	return true
}

// --- Index reads -----------------------------------------------------

// fetch resolves one ref to its document. Memtable documents are cloned
// when the caller may retain them; segment fetches are always fresh
// allocations. A failed (corrupt) segment read counts as a read error
// and the document is skipped — detected, never silent.
func (ix *Index) fetch(id string, r ref, retain bool) (Document, bool) {
	if r.seg == nil {
		d := ix.mem[id].doc
		if retain {
			return cloneDoc(d), true
		}
		return d, true
	}
	d, err := r.seg.fetchDoc(r)
	if err != nil {
		ix.eng.noteReadErr(err)
		return nil, false
	}
	return d, true
}

// memNewestFirst calls fn with each memtable document, newest first,
// until fn returns false. New ids sit at the tail of the scan order, so
// walking back from its end meets them all after about len(ix.mem) steps
// when nothing older was replaced. Caller holds ix.mu.
func (ix *Index) memNewestFirst(fn func(id string, md memDoc) bool) {
	for i, left := len(ix.order)-1, len(ix.mem); i >= 0 && left > 0; i-- {
		if md, ok := ix.mem[ix.order[i]]; ok {
			left--
			if !fn(ix.order[i], md) {
				return
			}
		}
	}
}

// skipSet returns the segments the footer statistics prove cannot match
// q; nil when nothing is skippable.
func (ix *Index) skipSet(q Query) map[*segment]bool {
	if len(q.Term) == 0 && q.RangeField == "" {
		return nil
	}
	var m map[*segment]bool
	for _, sg := range ix.segs {
		if sg.footer.skippable(q) {
			if m == nil {
				m = make(map[*segment]bool)
			}
			m[sg] = true
			ix.eng.segsSkipped.Add(1)
		}
	}
	return m
}

// scanLocked walks the merged view in scan order, yielding matching
// documents. Caller holds ix.mu (read side).
func (ix *Index) scanLocked(q Query, retain bool, fn func(id string, doc Document)) {
	skip := ix.skipSet(q)
	for _, id := range ix.order {
		r := ix.refs[id]
		if r.seg != nil {
			if skip[r.seg] {
				continue
			}
			ix.eng.segDocsRead.Add(1)
		}
		doc, ok := ix.fetch(id, r, retain)
		if !ok {
			continue
		}
		if matches(doc, q) {
			fn(id, doc)
		}
	}
}

// searchTopLocked serves a sorted, limited search (topk.go) reading as
// few segment documents as the sort allows: the memtable first, offering
// recorded keys without parsing, then the segments in order of their
// footer bound for the sort field, leaving unread (and counted in
// SegmentsSkipped) each segment whose bound cannot beat the current k-th
// hit. ok is false when the keys are not all of one kind; the caller
// then runs the full scan and sort. Caller holds ix.mu (read side).
func (ix *Index) searchTopLocked(q Query) (hits []Hit, ok bool) {
	sel := newTopK(q)
	offer := func(id string, md *memDoc) {
		h := Hit{ID: id, Doc: md.doc}
		if key, ok := timeOf(md.times, q.SortBy); ok {
			sel.add(ranked{key: key, pos: md.ord, hit: h})
		} else {
			sel.offer(md.doc[q.SortBy], md.ord, h)
		}
	}
	// The memtable newest first when descending, oldest first when
	// ascending: on documents inserted roughly in key order the first
	// offers fill the heap with the winners, and most later ones lose a
	// single comparison against its root.
	var asc []string
	ix.memNewestFirst(func(id string, md memDoc) bool {
		switch {
		case !matches(md.doc, q):
		case q.Desc:
			offer(id, &md)
		default:
			asc = append(asc, id)
		}
		return !sel.mixed
	})
	for i := len(asc) - 1; i >= 0 && !sel.mixed; i-- {
		md := ix.mem[asc[i]]
		offer(asc[i], &md)
	}
	type candidate struct {
		sg      *segment
		best    ranked
		bounded bool
	}
	skip := ix.skipSet(q)
	cands := make([]candidate, 0, len(ix.segs))
	for _, sg := range ix.segs {
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
			ix.eng.segsSkipped.Add(1)
			continue
		}
		ix.offerSegment(sel, c.sg, q)
	}
	if sel.mixed {
		return nil, false
	}
	hits = sel.hits()
	for i := range hits {
		if ix.refs[hits[i].ID].seg == nil {
			hits[i].Doc = cloneDoc(hits[i].Doc)
		}
	}
	return hits, true
}

// offerSegment offers sel the live documents of sg that match q: in
// result order along the sort field's column when sg has one, stopping
// at the first entry that cannot enter the selection (none after it
// can) before reading it; otherwise in directory order, newest first
// when descending (see searchTopLocked), parsing each key.
func (ix *Index) offerSegment(sel *topK, sg *segment, q Query) {
	entries := sg.footer.Entries
	col := sg.footer.Sort[q.SortBy]
	n := len(entries)
	if col != nil {
		n = len(col.Pos)
	}
	for k := 0; k < n; k++ {
		i := k
		if q.Desc {
			i = n - 1 - k
		}
		var c ranked
		if col != nil {
			c = ranked{key: col.key(i), pos: entries[col.Pos[i]].Ord}
			if !sel.canBeat(&c) {
				return
			}
			i = int(col.Pos[i])
		}
		en := &entries[i]
		if en.Del {
			continue
		}
		r, ok := ix.refs[en.ID]
		if !ok || r.seg != sg || r.off != en.Off {
			continue // shadowed by a newer copy, or gone
		}
		ix.eng.segDocsRead.Add(1)
		doc, ok := ix.fetch(en.ID, r, false)
		if !ok || !matches(doc, q) {
			continue
		}
		h := Hit{ID: en.ID, Doc: doc}
		if col != nil {
			c.hit = h
			sel.add(c)
		} else {
			sel.offer(doc[q.SortBy], r.ord, h)
		}
		if sel.mixed {
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
