package store

import (
	"fmt"
	"strings"
	"testing"

	"loglens/internal/chaos"
	"loglens/internal/fsx"
)

// --- Segment-engine crash matrix -------------------------------------
//
// The tests below walk a deterministic fault across every write site of
// the segment engine's flush/compact/manifest-swap sequences: one run
// per (fault kind, write index) cell. The invariant in every cell is the
// engine's durability contract: after the fault and a simulated crash,
// reopening on a healthy disk loses no acknowledged (Sync'd) mutation,
// keeps the pre-fault generation fully readable, and leaves the store
// writable.

// crashBaseline seeds dir with a committed generation: five log docs and
// one model, sealed into segments.
func crashBaseline(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Index("logs").Put(fmt.Sprintf("b%d", i), Document{"phase": "baseline", "n": i})
	}
	s.Index("models").Put("m0", Document{"body": "{}"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashWorkload runs the faulted phase: a write mix crossing WAL appends,
// seals, a compaction, and the manifest swaps between them. It returns
// the set of acknowledged documents (present with this exact content
// after any crash) and the ids whose acknowledged delete must hold (b1,
// once its delete was acknowledged).
func crashWorkload(t *testing.T, dir string, fsys fsx.FS) (acked map[string]Document, gone map[string]bool) {
	t.Helper()
	s, err := Open(Options{Dir: dir, FS: fsys})
	if err != nil {
		// The engine never writes while opening an existing store; an
		// open failure here is a test-harness bug, not a crash cell.
		t.Fatalf("faulted open: %v", err)
	}
	defer s.Abort() // crash at the end of the workload, whatever happened

	acked = make(map[string]Document)
	written := make(map[string]Document)
	put := func(id string, doc Document) {
		s.Index("logs").Put(id, doc)
		written[id] = doc
	}
	sync := func() {
		if s.Sync() == nil {
			for id, doc := range written {
				acked[id] = doc
			}
		}
	}

	put("w1", Document{"phase": "wal", "n": 101})
	put("w2", Document{"phase": "wal", "n": 102})
	sync()
	deleted := s.Index("logs").Delete("b1")
	put("w3", Document{"phase": "wal", "n": 103})
	gone = make(map[string]bool)
	if s.Sync() == nil {
		gone["b1"] = deleted
		for id, doc := range written {
			acked[id] = doc
		}
	}
	s.Flush() // seal: segment write + manifest + CURRENT swap
	put("w4", Document{"phase": "post-flush", "n": 104})
	sync()
	s.Compact() // full rewrite: segment + manifest + CURRENT swap
	put("w5", Document{"phase": "post-compact", "n": 105})
	sync()
	s.Flush()
	return acked, gone
}

// crashBatchWorkload is crashWorkload's write mix done with PutBatch, on
// a store whose small WAL buffer and seal threshold make batches spill
// mid-batch and seal. The sealer runs each seal the moment its put has
// cut it, which gives the write sequence of a seal run inside the put.
// Documents alternate between the canonical form PutBatch keeps as given
// and one the general encoder converts.
func crashBatchWorkload(t *testing.T, dir string, fsys fsx.FS) (acked map[string]Document, gone map[string]bool) {
	t.Helper()
	s, err := Open(Options{Dir: dir, FS: fsys, WALBufferBytes: 256, FlushBytes: 2 << 10})
	if err != nil {
		t.Fatalf("faulted open: %v", err)
	}
	s.eng.goSeal = func(seal func()) { seal() }
	defer s.Abort()

	acked = make(map[string]Document)
	written := make(map[string]Document)
	seq := 0
	putBatch := func(phase string, k int) {
		docs := make([]Document, k)
		for i := range docs {
			seq++
			n := 100 + seq
			docs[i] = Document{"phase": phase, "n": float64(n)}
			if i%2 == 1 {
				docs[i] = Document{"phase": phase, "n": n}
			}
			written[fmt.Sprintf("logs-%d", seq)] = Document{"phase": phase, "n": n}
		}
		s.Index("logs").PutBatch(docs)
	}
	sync := func() {
		if s.Sync() == nil {
			for id, doc := range written {
				acked[id] = doc
			}
		}
	}

	putBatch("wal", 3)
	sync()
	deleted := s.Index("logs").Delete("b1")
	putBatch("wal", 3)
	gone = make(map[string]bool)
	if s.Sync() == nil {
		gone["b1"] = deleted
		for id, doc := range written {
			acked[id] = doc
		}
	}
	s.Flush()
	putBatch("post-flush", 40) // crosses FlushBytes: the batch cuts a seal
	sync()
	s.Compact()
	putBatch("post-compact", 3)
	sync()
	s.Flush()
	return acked, gone
}

// crashSealerWorkload runs its size seals on the background sealer,
// stepped by the test, and lands mutations between each seal's cut and
// its commit — puts, a replacement and a delete of documents the seal in
// flight is writing (in an index with no segments yet, where only the
// seal in flight makes the delete leave a tombstone), a delete of a
// segment document and of a post-cut one — acknowledged before the seal
// commits. So its write sites include the build's segment file and the
// commit's wal-(G+1) tail, manifest and CURRENT with acknowledged
// mutations riding behind the cut. Keys are "<index>/<id>", or a bare
// id in "logs".
func crashSealerWorkload(t *testing.T, dir string, fsys fsx.FS) (acked map[string]Document, gone map[string]bool) {
	t.Helper()
	s, err := Open(Options{Dir: dir, FS: fsys, WALBufferBytes: 256, FlushBytes: 2 << 10})
	if err != nil {
		t.Fatalf("faulted open: %v", err)
	}
	sealer := newStepSealer(s)
	defer func() {
		sealer.step()
		s.Abort()
	}()

	// A mutation makes its key's fate uncertain until the next Sync
	// succeeds; a successful Sync acknowledges every mutation before it.
	acked, gone = make(map[string]Document), make(map[string]bool)
	written, deleted := make(map[string]Document), make(map[string]bool)
	touch := func(key string) {
		delete(acked, key)
		delete(gone, key)
		delete(written, key)
		delete(deleted, key)
	}
	put := func(key string, doc Document) {
		touch(key)
		ix, id := crashKey(s, key)
		ix.Put(id, doc)
		written[key] = doc
	}
	del := func(key string) {
		touch(key)
		if ix, id := crashKey(s, key); ix.Delete(id) {
			deleted[key] = true
		}
	}
	seq := 0
	putBatch := func(phase string, k int) {
		sealer.step() // never let a backlog make the put wait on the stepper
		docs := make([]Document, k)
		for i := range docs {
			seq++
			docs[i] = Document{"phase": phase, "n": 100 + seq}
			key := fmt.Sprintf("fresh/fresh-%d", seq)
			touch(key)
			written[key] = docs[i]
		}
		s.Index("fresh").PutBatch(docs)
	}
	sync := func() {
		if s.Sync() == nil {
			for key, doc := range written {
				acked[key] = doc
			}
			for key := range deleted {
				gone[key] = true
			}
		}
	}

	putBatch("cut", 30) // crosses FlushBytes: the put cuts, the seal waits
	put("t1", Document{"phase": "tail", "n": 1})
	put("fresh/fresh-5", Document{"phase": "tail", "n": 5}) // replaces a sealing document
	del("fresh/fresh-3")                                    // deletes a sealing document
	del("b1")                                               // deletes a segment document
	sync()
	sealer.step() // build, then commit with a tail
	put("t2", Document{"phase": "post-commit", "n": 2})
	del("t1")
	sync()
	putBatch("cut-2", 30) // cuts again; nothing lands behind this one
	sync()
	sealer.step()
	del("fresh/fresh-40") // sealed by the second seal
	put("t3", Document{"phase": "post-commit", "n": 3})
	sync()
	sealer.step() // a seal a failed one left to a later put
	s.Flush()
	return acked, gone
}

// crashKey resolves a crash-workload key: "<index>/<id>", or a bare id in
// "logs".
func crashKey(s *Store, key string) (*Index, string) {
	if name, id, ok := strings.Cut(key, "/"); ok {
		return s.Index(name), id
	}
	return s.Index("logs"), key
}

// crashVerify reopens dir on a healthy filesystem and checks the
// durability contract: every acknowledged document back with its
// content, no id in gone present.
func crashVerify(t *testing.T, dir string, acked map[string]Document, gone map[string]bool) {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close after verify: %v", err)
		}
	}()
	ix := s.Index("logs")
	// Baseline generation intact (b1 may be legitimately gone only once
	// its delete happened).
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("b%d", i)
		if id == "b1" {
			continue
		}
		if doc, ok := ix.Get(id); !ok || doc["phase"] != "baseline" {
			t.Errorf("baseline doc %s lost or changed: %v, %v", id, doc, ok)
		}
	}
	// No acknowledged delete rolled back.
	for key, g := range gone {
		if ix, id := crashKey(s, key); g {
			if doc, ok := ix.Get(id); ok {
				t.Errorf("acknowledged delete of %s rolled back (doc %v)", key, doc)
			}
		}
	}
	if _, ok := s.Index("models").Get("m0"); !ok {
		t.Error("baseline model lost")
	}
	// Every acknowledged mutation survived.
	for key, want := range acked {
		ix, id := crashKey(s, key)
		doc, ok := ix.Get(id)
		if !ok {
			t.Errorf("acknowledged doc %s lost", key)
			continue
		}
		if fmt.Sprint(doc["n"]) != fmt.Sprint(want["n"]) || doc["phase"] != want["phase"] {
			t.Errorf("acknowledged doc %s changed: got %v want %v", key, doc, want)
		}
	}
	// The store is fully writable after recovery.
	ix.Put("postcrash", Document{"phase": "verify"})
	if err := s.Sync(); err != nil {
		t.Errorf("Sync after recovery: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Errorf("Flush after recovery: %v", err)
	}
	if _, ok := ix.Get("postcrash"); !ok {
		t.Error("post-recovery write not visible")
	}
}

// TestEngineCrashMatrix: meter each workload's healthy write-op count,
// then replay it once per (kind, write index) with that single write
// faulted and the process crashed at the end. The put-at-a-time
// workload's cells are named <kind>-at-<n>, the batched workload's
// batched-<kind>-at-<n>, the background-sealer workload's
// sealer-<kind>-at-<n>.
func TestEngineCrashMatrix(t *testing.T) {
	workloads := []struct {
		prefix string
		run    func(*testing.T, string, fsx.FS) (map[string]Document, map[string]bool)
	}{
		{"", crashWorkload},
		{"batched-", crashBatchWorkload},
		{"sealer-", crashSealerWorkload},
	}
	for _, wl := range workloads {
		meterDir := t.TempDir()
		crashBaseline(t, meterDir)
		meter := chaos.NewFaultFS(nil, chaos.FSConfig{}, nil)
		acked, gone := wl.run(t, meterDir, meter)
		crashVerify(t, meterDir, acked, gone)
		total := int64(meter.Stats().Writes)
		if total < 8 {
			t.Fatalf("%sworkload crossed only %d write sites; the matrix has lost its coverage", wl.prefix, total)
		}
		for _, kind := range []string{"error", "short", "enospc"} {
			for at := int64(1); at <= total; at++ {
				wl, kind, at := wl, kind, at
				t.Run(fmt.Sprintf("%s%s-at-%d", wl.prefix, kind, at), func(t *testing.T) {
					t.Parallel()
					dir := t.TempDir()
					crashBaseline(t, dir)
					ffs := chaos.NewFaultFS(nil, chaos.FSConfig{FailAt: at, FailKind: kind}, nil)
					acked, gone := wl.run(t, dir, ffs)
					if st := ffs.Stats(); st.WriteErrors+st.ShortWrites+st.NoSpace != 1 {
						t.Fatalf("fault plan fired %d faults, want exactly 1 (%+v)", st.WriteErrors+st.ShortWrites+st.NoSpace, st)
					}
					crashVerify(t, dir, acked, gone)
				})
			}
		}
	}
}
