package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"loglens/internal/chaos"
	"loglens/internal/clock"
	"loglens/internal/fsx"
	"loglens/internal/testutil"
)

// stepSealer stands in for an engine's sealer goroutine: a seal a put
// has cut waits until the test steps it, so the test decides what lands
// between the cut and the commit, and runs stay deterministic. A put
// that would wait on the backlog bound, and every inline seal, waits
// for the pending seal — the test steps it first.
type stepSealer struct{ pending func() }

func newStepSealer(s *Store) *stepSealer {
	ss := &stepSealer{}
	ss.attach(s)
	return ss
}

// attach makes ss the sealer of s (a reopened store, say).
func (ss *stepSealer) attach(s *Store) {
	s.eng.goSeal = func(seal func()) { ss.pending = seal }
}

// step runs the pending seal's build and commit, if there is one.
func (ss *stepSealer) step() bool {
	seal := ss.pending
	ss.pending = nil
	if seal != nil {
		seal()
	}
	return seal != nil
}

// openTest opens a persistent store on dir with a fake clock, failing the
// test on error.
func openTest(t *testing.T, dir string, clk clock.Clock, mut ...func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, Clock: clk}
	for _, m := range mut {
		m(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReadAfterClose pins reads after Close and Abort. A store in a
// directory has closed its segment files: a read of a sealed document
// fails with os.ErrClosed, counted as a read error, and never panics. A
// store over the in-memory filesystem keeps serving every document.
func TestReadAfterClose(t *testing.T) {
	for _, abort := range []bool{false, true} {
		release := func(s *Store) {
			if abort {
				s.Abort()
			} else if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(fmt.Sprintf("disk/abort=%v", abort), func(t *testing.T) {
			s := openTest(t, t.TempDir(), clock.NewFake())
			s.Index("logs").Put("a", Document{"n": 1})
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			release(s)
			if doc, ok := s.Index("logs").Get("a"); ok {
				t.Fatalf("Get after close = %v, want a failed read", doc)
			}
			if st := s.Stats(); st.ReadErrors != 1 {
				t.Errorf("read_errors = %d, want 1", st.ReadErrors)
			}
			if err := s.eng.getErr(); !errors.Is(err, os.ErrClosed) {
				t.Errorf("last error = %v, want os.ErrClosed", err)
			}
		})
		t.Run(fmt.Sprintf("mem/abort=%v", abort), func(t *testing.T) {
			s := New()
			s.Index("logs").Put("a", Document{"n": 1})
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			s.Index("logs").Put("b", Document{"n": 2})
			release(s)
			for id, want := range map[string]float64{"a": 1, "b": 2} {
				if doc, ok := s.Index("logs").Get(id); !ok || doc["n"] != want {
					t.Errorf("Get(%s) after close = %v, %v; want n=%v", id, doc, ok, want)
				}
			}
			if st := s.Stats(); st.ReadErrors != 0 {
				t.Errorf("read_errors = %d, want 0", st.ReadErrors)
			}
		})
	}
}

// TestInMemoryStoreIsVolatile pins what a store without a directory
// skips because no reopen could read it: it writes no WAL file yet seals
// every FlushBytes of logged mutations, and keeps one generation. Open
// refuses an FS without a Dir rather than drop it.
func TestInMemoryStoreIsVolatile(t *testing.T) {
	if _, err := Open(Options{FS: fsx.NewMem()}); err == nil {
		t.Fatal("Open with an FS and no Dir succeeded")
	}
	s, err := Open(Options{FlushBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ix := s.Index("logs")
	for i := 0; i < 200; i++ {
		ix.PutAuto(Document{"raw": strings.Repeat("x", 100), "n": float64(i)})
	}
	s.eng.mu.Lock()
	s.eng.waitSealLocked()
	s.eng.mu.Unlock()
	st := s.Stats()
	if st.Persistent || st.Flushes < 3 {
		t.Fatalf("persistent=%v flushes=%d, want an in-memory store that sealed by size", st.Persistent, st.Flushes)
	}
	if st.WALBytes != 0 || st.WALPending <= 0 || st.WALPending >= 4<<10 {
		t.Errorf("wal_bytes=%d wal_pending=%d, want 0 and the unsealed tail's size", st.WALBytes, st.WALPending)
	}
	entries, err := s.eng.fs.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var manifests int
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "wal-") {
			t.Errorf("in-memory store wrote WAL file %s", ent.Name())
		}
		if _, ok := parseManifestGen(ent.Name()); ok {
			manifests++
		}
	}
	if manifests != 1 {
		t.Errorf("%d manifests kept, want 1", manifests)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ix.Count(); n != 200 {
		t.Errorf("Count after Close = %d, want 200", n)
	}
	for _, q := range []Query{{SortBy: "n", Desc: true, Limit: 3}, {SortBy: "n", Limit: 3}} {
		var got []float64
		for _, h := range ix.Search(q) {
			got = append(got, h.Doc["n"].(float64))
		}
		want := []float64{199, 198, 197}
		if !q.Desc {
			want = []float64{0, 1, 2}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Search(desc=%v) = %v, want %v", q.Desc, got, want)
		}
	}
}

func TestEngineBasicPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake()
	s := openTest(t, dir, clk)
	if !s.Persistent() {
		t.Fatal("Open returned a non-persistent store")
	}
	ix := s.Index("logs")
	ix.Put("a", Document{"raw": "one", "n": 1})
	ix.Put("b", Document{"raw": "two", "n": 2})
	ix.Put("a", Document{"raw": "one-updated", "n": 3})
	if got, _ := ix.Get("a"); got["raw"] != "one-updated" {
		t.Fatalf("Get after re-put = %v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, clk)
	ix2 := s2.Index("logs")
	if n := ix2.Count(); n != 2 {
		t.Fatalf("Count after reopen = %d, want 2", n)
	}
	doc, ok := ix2.Get("a")
	if !ok || doc["raw"] != "one-updated" {
		t.Fatalf("Get(a) after reopen = %v, %v", doc, ok)
	}
	// Numbers come back as canonical JSON float64 either way.
	if doc["n"] != float64(3) {
		t.Fatalf("numeric field after reopen = %v (%T)", doc["n"], doc["n"])
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSyncSurvivesAbort(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	s.Index("logs").Put("a", Document{"raw": "durable"})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Index("logs").Put("b", Document{"raw": "unsynced"})
	s.Abort() // crash: b never reached the WAL file

	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	if _, ok := s2.Index("logs").Get("a"); !ok {
		t.Fatal("synced document lost by crash")
	}
}

func TestEngineFlushMovesDocsToSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	ix := s.Index("logs")
	for i := 0; i < 10; i++ {
		ix.Put(fmt.Sprintf("d%02d", i), Document{"n": i})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Indices) != 1 || st.Indices[0].Segments != 1 || st.Indices[0].MemDocs != 0 {
		t.Fatalf("after flush: %+v", st.Indices)
	}
	// Segment-backed reads serve the same documents.
	for i := 0; i < 10; i++ {
		doc, ok := ix.Get(fmt.Sprintf("d%02d", i))
		if !ok || doc["n"] != float64(i) {
			t.Fatalf("Get(d%02d) = %v, %v", i, doc, ok)
		}
	}
	// Deleting a sealed doc tombstones it; the tombstone survives reopen.
	ix.Delete("d03")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	if _, ok := s2.Index("logs").Get("d03"); ok {
		t.Fatal("deleted document resurrected after reopen")
	}
	if n := s2.Index("logs").Count(); n != 9 {
		t.Fatalf("Count after tombstoned reopen = %d, want 9", n)
	}
}

func TestEngineCompactResolvesGarbage(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	ix := s.Index("logs")
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			ix.Put(fmt.Sprintf("d%d", i), Document{"round": round, "n": i})
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ix.Delete("d5")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Indices[0].Segments != 1 || st.Indices[0].DeadDocs != 0 {
		t.Fatalf("after compact: %+v", st.Indices[0])
	}
	if n := ix.Count(); n != 5 {
		t.Fatalf("Count after compact = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		doc, _ := ix.Get(fmt.Sprintf("d%d", i))
		if doc["round"] != float64(2) {
			t.Fatalf("d%d = %v, want round 2", i, doc)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	if n := s2.Index("logs").Count(); n != 5 {
		t.Fatalf("Count after compact+reopen = %d, want 5", n)
	}
}

// TestEngineRetentionDeterminism drives the fake clock through a golden
// scenario: hourly buckets, 3h retention, one segment sealed per hour.
// The evicted counts and segment counts at every step are fixed by the
// engine's design; any drift is a behavior change.
func TestEngineRetentionDeterminism(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake()
	s := openTest(t, dir, clk, func(o *Options) {
		o.Retention = 3 * time.Hour
		o.RetentionExempt = []string{"models"}
		o.MaxSegments = 100 // keep compaction out of this test
	})
	ix := s.Index("logs")
	mod := s.Index("models")
	var gotSegs, gotEvicted []string
	for hour := 0; hour < 8; hour++ {
		ix.Put(fmt.Sprintf("h%d", hour), Document{"hour": hour})
		mod.Put(fmt.Sprintf("m%d", hour), Document{"hour": hour})
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Hour)
		if err := s.ApplyRetention(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		var logs, models IndexStats
		for _, is := range st.Indices {
			switch is.Name {
			case "logs":
				logs = is
			case "models":
				models = is
			}
		}
		gotSegs = append(gotSegs, fmt.Sprintf("%d/%d", logs.Segments, models.Segments))
		gotEvicted = append(gotEvicted, fmt.Sprintf("%d", ix.Evicted()))
	}
	// Hour h seals bucket h; after advancing to h+1, buckets whose window
	// ended at or before h+1-3 are dropped: the steady state holds three
	// hourly segments, evicting one doc per tick from hour 3 on. Models
	// are exempt and accrete forever.
	wantSegs := []string{"1/1", "2/2", "3/3", "3/4", "3/5", "3/6", "3/7", "3/8"}
	wantEvicted := []string{"0", "0", "0", "1", "2", "3", "4", "5"}
	if !reflect.DeepEqual(gotSegs, wantSegs) {
		t.Errorf("segment counts per tick = %v, want %v", gotSegs, wantSegs)
	}
	if !reflect.DeepEqual(gotEvicted, wantEvicted) {
		t.Errorf("evicted counts per tick = %v, want %v", gotEvicted, wantEvicted)
	}
	if n := ix.Count(); n != 3 {
		t.Errorf("logs Count = %d, want 3", n)
	}
	// Each dropped segment's document was orphaned by the drop and
	// evicted with it; the young ones stay.
	for hour := 0; hour < 8; hour++ {
		if _, ok := ix.Get(fmt.Sprintf("h%d", hour)); ok != (hour >= 5) {
			t.Errorf("Get(h%d) present = %v after the drops, want %v", hour, ok, hour >= 5)
		}
	}
	if n := mod.Count(); n != 8 {
		t.Errorf("models Count = %d, want 8 (exempt)", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The aged-out state is durable.
	s2 := openTest(t, dir, clk)
	defer s2.Close()
	if n, ev := s2.Index("logs").Count(), s2.Index("logs").Evicted(); n != 3 || ev != 5 {
		t.Fatalf("after reopen: Count, Evicted = %d, %d; want 3, 5", n, ev)
	}
}

func TestEngineCheckpointLoadGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	defer s.Close()
	ix := s.Index("logs")
	ix.Put("a", Document{"v": 1})
	auto1 := ix.PutAuto(Document{"v": 2})
	gen, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("Checkpoint returned generation 0")
	}

	// Post-checkpoint traffic: mutate, delete, add an index.
	ix.Put("a", Document{"v": 10})
	ix.Delete(auto1)
	s.Index("extra").Put("x", Document{"v": 99})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := s.LoadGeneration(gen); err != nil {
		t.Fatal(err)
	}
	if doc, _ := s.Index("logs").Get("a"); doc["v"] != float64(1) {
		t.Fatalf("restored a = %v, want v=1", doc)
	}
	if _, ok := s.Index("logs").Get(auto1); !ok {
		t.Fatal("restored store lost the checkpointed auto doc")
	}
	if n := s.Index("extra").Count(); n != 0 {
		t.Fatalf("post-checkpoint index survived restore with %d docs", n)
	}
	// The sequence counter restores with the generation: new auto ids
	// continue past the checkpointed ones instead of colliding.
	auto2 := s.Index("logs").PutAuto(Document{"v": 2})
	if auto2 != "logs-2" {
		t.Fatalf("PutAuto after restore = %q, want %q (auto1 was %q)", auto2, "logs-2", auto1)
	}
}

func TestEngineLoadGenerationSurvivesGC(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake(), func(o *Options) { o.Keep = 2 })
	ix := s.Index("logs")
	ix.Put("pinned", Document{"v": 1})
	gen, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Burn through many generations past the keep window.
	for i := 0; i < 10; i++ {
		ix.Put(fmt.Sprintf("later%d", i), Document{"v": i})
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The pin is recorded in the manifest, so a fresh process still
	// honors it.
	s2 := openTest(t, dir, clock.NewFake(), func(o *Options) { o.Keep = 2 })
	defer s2.Close()
	for i := 0; i < 5; i++ {
		s2.Index("logs").Put(fmt.Sprintf("even-later%d", i), Document{"v": i})
		if err := s2.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.LoadGeneration(gen); err != nil {
		t.Fatalf("pinned generation GC'd: %v", err)
	}
	if n := s2.Index("logs").Count(); n != 1 {
		t.Fatalf("restored Count = %d, want 1", n)
	}
}

func TestEngineDeleteIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	s.Index("gone").Put("a", Document{"v": 1})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !s.DeleteIndex("gone") {
		t.Fatal("DeleteIndex returned false")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	for _, name := range s2.Indices() {
		if name == "gone" {
			t.Fatal("deleted index resurrected after reopen")
		}
	}
}

func TestEngineWALTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	s.Index("logs").Put("a", Document{"v": 1})
	s.Index("logs").Put("b", Document{"v": 2})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	s.Abort()

	// Tear the WAL mid-frame, as a crash during append would.
	walPath := filepath.Join(dir, walName(gen))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	// The valid prefix (a) replays; the torn record (b) is lost — but the
	// store opens and keeps working.
	if _, ok := s2.Index("logs").Get("a"); !ok {
		t.Fatal("valid WAL prefix not replayed")
	}
	if _, ok := s2.Index("logs").Get("b"); ok {
		t.Fatal("torn WAL record replayed")
	}
	s2.Index("logs").Put("c", Document{"v": 3})
	if err := s2.Sync(); err != nil {
		t.Fatalf("Sync after torn-tail repair: %v", err)
	}
}

func TestEngineSkipStatsStayConservative(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake()
	s := openTest(t, dir, clk)
	defer s.Close()
	ix := s.Index("logs")
	base := clk.Now()
	for i := 0; i < 20; i++ {
		ix.Put(fmt.Sprintf("d%02d", i), Document{
			"n":    i,
			"tag":  fmt.Sprintf("t%d", i%3),
			"time": base.Add(time.Duration(i) * time.Minute),
		})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 25; i++ {
		ix.Put(fmt.Sprintf("d%02d", i), Document{"n": i, "tag": "t9"})
	}

	if n := ix.CountWhere(Query{Term: map[string]any{"tag": "t1"}}); n != 7 {
		t.Fatalf("CountWhere(tag=t1) = %d, want 7", n)
	}
	// A term no segment holds: the segment must be skipped, not scanned.
	before := s.Stats().SegmentsSkipped
	if n := ix.CountWhere(Query{Term: map[string]any{"tag": "t9"}}); n != 5 {
		t.Fatalf("CountWhere(tag=t9) = %d, want 5", n)
	}
	if after := s.Stats().SegmentsSkipped; after <= before {
		t.Fatalf("segment not skipped for impossible term (skips %d -> %d)", before, after)
	}
	hits := ix.Search(Query{RangeField: "n", RangeMin: 18, RangeMax: 21, SortBy: "n"})
	if len(hits) != 4 || hits[0].ID != "d18" || hits[3].ID != "d21" {
		t.Fatalf("range straddling memtable/segment = %v", hits)
	}
	times, counts := ix.Histogram(Query{}, "time", time.Hour)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 20 || len(times) == 0 {
		t.Fatalf("Histogram total = %d over %d buckets, want 20", total, len(times))
	}
}

func TestEngineRejectsCorruptCURRENT(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	s.Index("logs").Put("a", Document{"v": 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("MANIFEST-999999.json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Clock: clock.NewFake()}); err == nil {
		t.Fatal("Open accepted a CURRENT pointing at a missing manifest")
	}
	// A garbage manifest is rejected too, with the path in the error.
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("MANIFEST-000001.json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST-000001.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Clock: clock.NewFake()})
	if err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("Open on corrupt manifest: %v", err)
	}
}

// TestEngineBackgroundLoops drives the maintenance goroutine on the fake
// clock: the flush ticker spills the WAL buffer, the compact ticker
// applies the seal policy, and the retention ticker ages a whole bucket
// of segments out — no wall-clock waits, ticks fire on Advance.
func TestEngineBackgroundLoops(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake()
	s := openTest(t, dir, clk, func(o *Options) {
		o.FlushInterval = time.Second
		o.CompactInterval = 2 * time.Second
		o.RetentionInterval = 3 * time.Second
		o.Retention = 30 * time.Minute
		o.BucketDuration = time.Minute
		o.RetentionExempt = []string{"models"}
	})
	defer s.Close()
	ix := s.Index("logs")
	ix.Put("a", Document{"n": 1})
	s.Index("models").Put("m", Document{"kind": "model"})

	// Flush tick: the buffered WAL record lands on disk. Wait for the
	// loop's three tickers, then advance exactly one flush interval and
	// poll without advancing again, so the 2 s compact tick cannot seal
	// the WAL before the spill is seen.
	clk.BlockUntil(3)
	clk.Advance(time.Second)
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		data, err := os.ReadFile(filepath.Join(dir, walName(s.Generation())))
		return err == nil && len(data) > 0
	}, "flush tick never spilled the WAL")

	// Force segments to exist, then age them past the horizon; the
	// retention tick must drop the logs bucket but spare the exempt index.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		clk.Advance(31 * time.Minute) // fires all three tickers
		for _, st := range s.Stats().Indices {
			if st.Name == "logs" && st.Segments == 0 {
				return true
			}
		}
		return false
	}, "retention tick never dropped the aged bucket")
	if _, ok := ix.Get("a"); ok {
		t.Fatal("document survived age-based retention")
	}
	if _, ok := s.Index("models").Get("m"); !ok {
		t.Fatal("exempt index lost its document to age-based retention")
	}
	after := s.Stats()
	if after.Generation <= before.Generation {
		t.Fatalf("retention did not commit a generation: %d -> %d", before.Generation, after.Generation)
	}
	// The compact ticker keeps running without error on an idle store.
	clk.Advance(4 * time.Second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// contents is an index's documents in scan order, as an unsorted,
// unlimited Search returns them: what tests compare two stores by.
func contents(ix *Index) []Hit { return ix.Search(Query{}) }

// TestEngineWALReplayAllOps covers the crash-replay path for every WAL
// record type at once: puts, deletes, index creation and deletion must
// all reconstruct from the log alone (no flush before the abort). A
// record whose op replay does not know — here the "load" record of the
// removed snapshot path — fails the open and names the op.
func TestEngineWALReplayAllOps(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake()
	s := openTest(t, dir, clk)
	logs := s.Index("logs")
	for i := 0; i < 6; i++ {
		logs.Put(fmt.Sprintf("d%d", i), Document{"n": i})
	}
	logs.Put("d1", Document{"n": 10}) // a replaced id keeps its slot
	logs.Delete("d4")
	doomed := s.Index("doomed")
	doomed.Put("x", Document{"n": 1})
	s.DeleteIndex("doomed")
	s.Index("empty")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := contents(logs)
	s.Abort() // crash: only the WAL survives

	s2 := openTest(t, dir, clk)
	if got := contents(s2.Index("logs")); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed logs = %v, want %v", got, want)
	}
	if got := fmt.Sprint(s2.Indices()); got != "[empty logs]" {
		t.Fatalf("replayed indices = %s, want [empty logs]", got)
	}
	wal := filepath.Join(dir, s2.eng.walFile)
	s2.Abort()

	// An older build's WAL may end in a record this one no longer knows.
	rec, err := appendWAL(nil, &walRecord{Op: "load", Ix: "logs", Doc: json.RawMessage(`{"l1":{"v":"one"}}`)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if s3, err := Open(Options{Dir: dir, Clock: clk}); err == nil {
		s3.Abort()
		t.Fatal("Open replayed a WAL holding an unknown op")
	} else if !strings.Contains(err.Error(), `"load"`) {
		t.Fatalf("Open error %q does not name the unknown op", err)
	}
}

// TestEnginePutBatchMatchesPutAuto: a batch whose auto IDs run into a
// manually put document ends exactly as one PutAuto per document would
// — the replaced id keeping its slot in the scan order — in memory, on
// disk live, and on disk after its WAL alone is replayed.
func TestEnginePutBatchMatchesPutAuto(t *testing.T) {
	batch := func() []Document {
		docs := make([]Document, 6)
		for i := range docs {
			docs[i] = Document{"n": float64(i)}
			if i%2 == 1 {
				docs[i] = Document{"n": i}
			}
		}
		return docs
	}
	prime := func(s *Store) *Index {
		ix := s.Index("logs")
		ix.Put("first", Document{"manual": true})
		ix.Put("logs-3", Document{"manual": true})
		return ix
	}
	oracle := New()
	oix := prime(oracle)
	for _, doc := range batch() {
		oix.PutAuto(doc)
	}
	want := contents(oix)
	if len(want) != 7 || want[1].ID != "logs-3" || want[1].Doc["n"] != float64(2) {
		t.Fatalf("oracle = %v, want logs-3 replaced in its slot", want)
	}
	check := func(what string, ix *Index) {
		t.Helper()
		if got := contents(ix); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, want %v", what, got, want)
		}
	}
	mem := prime(New())
	mem.PutBatch(batch())
	check("in-memory", mem)

	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	seg := prime(s)
	seg.PutBatch(batch())
	check("segment engine", seg)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	check("WAL replay", s2.Index("logs"))
	// The sequence carries on where the batch left it.
	if id := s2.Index("logs").PutAuto(Document{"n": 6}); id != "logs-7" {
		t.Errorf("PutAuto after replay = %q, want logs-7", id)
	}
}

// TestEngineSealOffThePutPath: the put that crosses FlushBytes only cuts
// the seal — generation unchanged, SealInFlight reported — and puts go on
// behind the cut without waiting until another FlushBytes has piled up.
// The put past that bound waits for the sealer (counted in PutWaits),
// then cuts the next seal itself; nothing acknowledged is lost.
func TestEngineSealOffThePutPath(t *testing.T) {
	const flush = 2 << 10
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake(), func(o *Options) { o.FlushBytes = flush })
	sealer := newStepSealer(s)
	ix := s.Index("logs")
	gen := s.Generation()
	doc := func(i int) Document { return Document{"raw": fmt.Sprintf("line %04d", i), "n": i} }
	n := 0
	for !s.Stats().SealInFlight {
		ix.PutAuto(doc(n))
		n++
	}
	if st := s.Stats(); st.Generation != gen || st.PutWaits != 0 {
		t.Fatalf("after the cut: generation %d (want %d), put waits %d", st.Generation, gen, st.PutWaits)
	}
	for sealBacklog(s)+walBound(doc(n)) < flush {
		ix.PutAuto(doc(n))
		n++
	}
	if st := s.Stats(); !st.SealInFlight || st.PutWaits != 0 || st.Generation != gen {
		t.Fatalf("puts below the backlog bound: %+v", st)
	}

	// A batch that takes the backlog past FlushBytes waits for the seal.
	batch := make([]Document, 64)
	for i := range batch {
		batch[i] = doc(n + i)
	}
	n += len(batch)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ix.PutBatch(batch)
	}()
	testutil.WaitUntil(t, 5*time.Second, func() bool { return s.Stats().PutWaits == 1 },
		"the put past the backlog bound never waited")
	select {
	case <-done:
		t.Fatal("the put past the backlog bound returned with the seal still in flight")
	default:
	}
	sealer.step()
	<-done
	st := s.Stats()
	if st.Generation != gen+1 || !st.SealInFlight || st.PutWaits != 1 {
		t.Fatalf("after the wait: generation %d (want %d), in flight %v (want the waiter's cut), put waits %d",
			st.Generation, gen+1, st.SealInFlight, st.PutWaits)
	}
	j, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j), `"seal_in_flight":true`) || !strings.Contains(string(j), `"put_waits":1`) {
		t.Fatalf("/api/storage fields missing: %s", j)
	}
	sealer.step()
	if st := s.Stats(); st.SealInFlight || st.Generation != gen+2 {
		t.Fatalf("after the second seal: %+v", st)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Abort()

	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	if got := s2.Index("logs").Count(); got != n {
		t.Fatalf("reopen holds %d documents, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if d, ok := s2.Index("logs").Get(autoID("logs", uint64(i+1))); !ok || d["n"] != float64(i) {
			t.Fatalf("document %d after reopen: %v, %v", i, d, ok)
		}
	}
}

// TestEngineAbortWithSealInFlight: Abort — Pipeline.Kill's path — with a
// background seal between its cut and its commit waits for the sealer,
// so no file is written once it returns, and a reopen returns every
// acknowledged document and no deleted one.
func TestEngineAbortWithSealInFlight(t *testing.T) {
	dir := t.TempDir()
	fsys := chaos.NewFaultFS(nil, chaos.FSConfig{}, nil) // counts writes
	s := openTest(t, dir, clock.NewFake(), func(o *Options) {
		o.FS = fsys
		o.FlushBytes = 2 << 10
	})
	gate, sealed := make(chan struct{}), make(chan struct{})
	s.eng.goSeal = func(seal func()) {
		go func() {
			defer close(sealed)
			<-gate
			seal()
		}()
	}
	ix := s.Index("logs")
	n := 0
	for !s.Stats().SealInFlight {
		ix.Put(fmt.Sprintf("d%03d", n), Document{"n": n})
		n++
	}
	// Behind the cut: a put, a delete of a document the seal is writing,
	// a delete of a document it is not.
	ix.Put("late", Document{"n": -1})
	ix.Delete("d001")
	ix.Put("gone", Document{"n": -2})
	ix.Delete("gone")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	aborted := make(chan struct{})
	go func() {
		defer close(aborted)
		s.Abort()
	}()
	select {
	case <-aborted:
		t.Fatal("Abort returned while the seal was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-aborted
	writes := fsys.Stats().Writes
	<-sealed
	if after := fsys.Stats().Writes; after != writes {
		t.Fatalf("%d writes after Abort returned", after-writes)
	}

	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	ix2 := s2.Index("logs")
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%03d", i)
		d, ok := ix2.Get(id)
		if id == "d001" {
			if ok {
				t.Fatalf("deleted %s came back: %v", id, d)
			}
			continue
		}
		if !ok || d["n"] != float64(i) {
			t.Fatalf("acknowledged %s after reopen: %v, %v", id, d, ok)
		}
	}
	if _, ok := ix2.Get("late"); !ok {
		t.Fatal("acknowledged put behind the cut lost")
	}
	if d, ok := ix2.Get("gone"); ok {
		t.Fatalf("deleted document behind the cut came back: %v", d)
	}
}

// TestEngineConcurrentWritesWithBackgroundSeals runs writers and a reader
// against a store whose small FlushBytes keeps the real background sealer
// busy: batches, replacements and deletes land while seals build and
// commit, and the reader queries throughout. The live view and a reopen
// must both hold exactly what the writers left.
func TestEngineConcurrentWritesWithBackgroundSeals(t *testing.T) {
	const writers, rounds = 4, 150
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake(), func(o *Options) {
		o.FlushBytes = 8 << 10
		o.WALBufferBytes = 1 << 10
	})
	names := []string{"even", "odd"}
	want := make([]map[string]float64, writers) // per writer: id → n
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		want[g] = make(map[string]float64)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix := s.Index(names[g%2])
			for i := 0; i < rounds; i++ {
				batch := make([]Document, 4)
				for j := range batch {
					batch[j] = Document{"g": float64(g), "n": float64(i*10 + j), "pad": strings.Repeat("x", 40)}
				}
				ix.PutBatch(batch)
				id := fmt.Sprintf("w%d-%d", g, i%7)
				ix.Put(id, Document{"g": float64(g), "n": float64(i)})
				want[g][id] = float64(i)
				if i%5 == 4 {
					del := fmt.Sprintf("w%d-%d", g, (i+3)%7)
					ix.Delete(del)
					delete(want[g], del)
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range names {
				s.Index(name).Search(Query{Term: map[string]any{"g": float64(1)}, SortBy: "n", Desc: true, Limit: 5})
				s.Index(name).Count()
			}
			s.Stats()
		}
	}()
	wg.Wait()
	close(stop)
	<-read

	check := func(s *Store, when string) {
		t.Helper()
		total := 0
		for g := range want {
			ix := s.Index(names[g%2])
			for id, n := range want[g] {
				if d, ok := ix.Get(id); !ok || d["n"] != n {
					t.Fatalf("%s: %s/%s = %v, %v; want n=%v", when, names[g%2], id, d, ok, n)
				}
			}
			total += len(want[g]) + rounds*4
		}
		if got := s.Index("even").Count() + s.Index("odd").Count(); got != total {
			t.Fatalf("%s: %d documents, want %d", when, got, total)
		}
	}
	check(s, "live")
	if st := s.Stats(); st.Flushes == 0 {
		t.Fatalf("no background seal ran: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, clock.NewFake())
	defer s2.Close()
	check(s2, "reopen")
}

// TestPutBatchAllocBudget holds the archive's write path — PutBatch of
// flat documents whose times are strings, as modelmgr.ArchiveDoc builds
// them — to its allocations per document: the encoded bytes, the id,
// and amortized growth of the memtable and the scan order, 3.02–3.05
// before sort keys were recorded. Recording them must add no parse and
// no allocation here.
func TestPutBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const batch, budget = 64, 3.1
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	docs := make([]Document, batch)
	for i := range docs {
		docs[i] = Document{
			"raw":     fmt.Sprintf("2016/02/23 09:00:%02d.000 line %d of the archive", i%60, i),
			"seq":     float64(i),
			"arrival": base.Add(time.Duration(i) * time.Millisecond).Format(time.RFC3339Nano),
			"source":  "default",
		}
	}
	for _, kind := range []string{"in memory", "in a directory"} {
		s := New()
		if kind == "in a directory" {
			s = openTest(t, t.TempDir(), clock.NewFake(), func(o *Options) { o.FlushBytes = 1 << 30 })
		}
		ix := s.Index("logs-default")
		ix.PutBatch(docs)
		if got := testing.AllocsPerRun(100, func() { ix.PutBatch(docs) }) / batch; got > budget {
			t.Errorf("%s: PutBatch allocates %.3f per document, budget %.1f", kind, got, budget)
		}
		if n := len(ix.mem["logs-default-1"].times); n != 0 {
			t.Errorf("%s: PutBatch recorded %d time keys for a document of strings", kind, n)
		}
		s.Close()
	}
}

// TestReplayRecordsTimeKeys: documents the WAL replays at open carry
// the keys of their time strings, so the first seal after a reopen
// writes a sort column as the seal before it did.
func TestReplayRecordsTimeKeys(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, clock.NewFake())
	ix := s.Index("anomalies")
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		ix.PutAuto(Document{"ts": base.Add(time.Duration(9-i) * time.Minute), "n": i})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	s = openTest(t, dir, clock.NewFake())
	defer s.Close()
	ix = s.Index("anomalies")
	md := ix.mem["anomalies-1"]
	if key, ok := timeOf(md.times, "ts"); !ok || key != timeKey(base.Add(9*time.Minute)) {
		t.Fatalf("replayed document's ts key = %+v, %v", key, ok)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	col := ix.segs[0].footer.Sort["ts"]
	if col == nil || len(col.Pos) != 10 || col.Pos[0] != 9 {
		t.Fatalf("seal after replay wrote sort column %+v, want all 10 documents, newest put first", col)
	}
}

// TestCompactAfterFlushRewrites: Compact rewrites every index into one
// segment even when a Flush has just sealed everything and the WAL is
// empty, and commits a new generation; a second Compact, with nothing
// left to merge, changes nothing.
func TestCompactAfterFlushRewrites(t *testing.T) {
	s := openTest(t, t.TempDir(), clock.NewFake())
	defer s.Close()
	names := []string{"a", "b"}
	for round := 0; round < 3; round++ {
		for _, name := range names {
			for i := 0; i < 5; i++ {
				s.Index(name).PutAuto(Document{"round": round, "i": i})
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		if n := len(s.Index(name).segs); n != 3 {
			t.Fatalf("setup: index %s has %d segments, want 3", name, n)
		}
	}
	gen := s.Generation()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen+1 {
		t.Fatalf("generation after Compact = %d, want %d", got, gen+1)
	}
	for _, name := range names {
		ix := s.Index(name)
		if n := len(ix.segs); n != 1 {
			t.Errorf("index %s has %d segments after Compact, want 1", name, n)
		}
		if n := ix.Count(); n != 15 {
			t.Errorf("index %s holds %d documents after Compact, want 15", name, n)
		}
	}
	gen = s.Generation()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != gen {
		t.Fatalf("second Compact moved the generation %d → %d", gen, got)
	}
}
