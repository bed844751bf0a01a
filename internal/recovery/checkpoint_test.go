package recovery

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"loglens/internal/chaos"
	"loglens/internal/fsx"
	"loglens/internal/store"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Offsets: map[string]map[string]int64{
			"pipeline": {"logs/0": 42, "logs/1": 17},
		},
		Counters:       map[string]uint64{"lines": 59, "parsed": 50, "unparsed": 9},
		DefaultModelID: "model-7",
		SourceModels:   map[string]string{"web": "model-8"},
		Engines: []EngineState{{
			Name: "main",
			Partitions: []PartitionState{{
				Index: 0,
				Keys:  []KeyState{{Key: "__op@web", ModelID: "model-8"}},
			}},
		}},
		Quarantine: map[string]int{"web#12": 2},
	}
}

// openStore opens the store a checkpoint in dir belongs to, in its
// store directory there, on fsys (the OS when nil): the layout a
// pipeline without a data directory uses. The store is aborted when the
// test ends, as a crash would leave it.
func openStore(t *testing.T, fsys fsx.FS, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store"), FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Abort)
	return st
}

// sampleStore opens the store in dir and fills it with the documents
// sampleCheckpoint refers to.
func sampleStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st := openStore(t, nil, dir)
	st.Index("anomalies").Put("a1", store.Document{"type": "missing-end-state"})
	st.Index("models").Put("model-7", store.Document{"body": "{}"})
	return st
}

func TestManagerSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, dir)
	st := sampleStore(t, dir)

	gen, err := m.Save(sampleCheckpoint(), st)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Errorf("first generation = %d, want 1", gen)
	}
	// Traffic after the checkpoint reaches the disk, then the process
	// dies.
	st.Index("anomalies").Put("a2", store.Document{"type": "after-the-cut"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Abort()

	cp, ok, err := m.Load()
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v", ok, err)
	}
	if cp.Generation != 1 || cp.Offsets["pipeline"]["logs/0"] != 42 {
		t.Errorf("round trip lost data: %+v", cp)
	}
	if cp.Counters["lines"] != 59 || cp.DefaultModelID != "model-7" {
		t.Errorf("round trip lost counters/model: %+v", cp)
	}
	if cp.Quarantine["web#12"] != 2 {
		t.Errorf("round trip lost quarantine strikes: %+v", cp.Quarantine)
	}
	if cp.StoreGen == 0 {
		t.Fatal("checkpoint names no store generation")
	}

	st2 := openStore(t, nil, dir)
	if err := m.RestoreStore(cp, st2); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Index("anomalies").Get("a1"); !ok {
		t.Error("checkpointed document not restored")
	}
	if _, ok := st2.Index("anomalies").Get("a2"); ok {
		t.Error("document put after the checkpoint survived the restore")
	}
}

// TestManagerRefusesVolatileStore: a store that keeps no files cannot be
// restored after a crash, so Save refuses it and writes nothing.
func TestManagerRefusesVolatileStore(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, dir)
	if _, err := m.Save(sampleCheckpoint(), store.New()); err == nil {
		t.Fatal("Save accepted a store that keeps no files")
	}
	if gens := m.Generations(); len(gens) != 0 {
		t.Errorf("refused save left generations %v", gens)
	}
}

// TestManagerRestoreNeedsStoreGen: a checkpoint without a store
// generation — one saved without a store, or by the removed snapshot
// path — is refused for a pipeline that has a store, which it would
// otherwise leave as it is under restored offsets and counters.
func TestManagerRestoreNeedsStoreGen(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, dir)
	if _, err := m.Save(sampleCheckpoint(), nil); err != nil {
		t.Fatal(err)
	}
	cp, ok, err := m.Load()
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v", ok, err)
	}
	if cp.StoreGen != 0 {
		t.Fatalf("store-less checkpoint names store generation %d", cp.StoreGen)
	}
	if err := m.RestoreStore(cp, nil); err != nil {
		t.Errorf("RestoreStore without a store = %v, want nil", err)
	}
	st := sampleStore(t, dir)
	if err := m.RestoreStore(cp, st); err == nil {
		t.Fatal("RestoreStore accepted a checkpoint without a store generation")
	}
	if _, ok := st.Index("anomalies").Get("a1"); !ok {
		t.Error("refused restore touched the store")
	}
}

func TestManagerLoadEmptyDirIsFreshStart(t *testing.T) {
	m := NewManager(nil, t.TempDir())
	cp, ok, err := m.Load()
	if cp != nil || ok || err != nil {
		t.Fatalf("Load on empty dir = %v, %v, %v; want nil, false, nil", cp, ok, err)
	}
	// A directory that does not exist at all is also a fresh start.
	m2 := NewManager(nil, filepath.Join(t.TempDir(), "missing"))
	if _, ok, err := m2.Load(); ok || err != nil {
		t.Fatalf("Load on missing dir = %v, %v; want false, nil", ok, err)
	}
}

func TestManagerCorruptCurrentPointerErrors(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, dir)
	if _, err := m.Save(sampleCheckpoint(), nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, currentFile), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Load(); err == nil {
		t.Fatal("corrupt CURRENT pointer must surface an error, not a silent fresh start")
	}
}

func TestManagerCorruptCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, dir)
	if _, err := m.Save(sampleCheckpoint(), nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFile(1)), []byte(`{"generation": tru`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Load(); err == nil {
		t.Fatal("corrupt checkpoint must surface an error")
	}
}

func TestManagerGCKeepsWindow(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, dir)
	st := sampleStore(t, dir)
	storeGens := make(map[uint64]uint64)
	for i := 0; i < 4; i++ {
		st.Index("anomalies").Put(fmt.Sprintf("gen%d", i+1), store.Document{"n": i + 1})
		gen, err := m.Save(sampleCheckpoint(), st)
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := m.Load()
		if err != nil {
			t.Fatal(err)
		}
		storeGens[gen] = cp.StoreGen
	}
	gens := m.Generations()
	if len(gens) != 2 || gens[0] != 3 || gens[1] != 4 {
		t.Errorf("generations after GC = %v, want [3 4]", gens)
	}
	// The store directory is no generation of its own: GC leaves it, and
	// the store generations both kept checkpoints name stay restorable.
	if _, err := os.Stat(filepath.Join(dir, "store", "CURRENT")); err != nil {
		t.Fatalf("store directory lost to checkpoint GC: %v", err)
	}
	for _, gen := range []uint64{3, 4} {
		if err := st.LoadGeneration(storeGens[gen]); err != nil {
			t.Fatalf("checkpoint %d: store generation %d: %v", gen, storeGens[gen], err)
		}
		if n := st.Index("anomalies").Count(); n != int(gen)+1 {
			t.Errorf("checkpoint %d restores %d anomalies, want %d", gen, n, gen+1)
		}
	}
}

// TestManagerCrashMidSaveKeepsPrevious: a save that dies partway (every
// write faulted, the store's seal included) leaves CURRENT pointing at
// the previous complete generation, whose store generation restores, and
// the next successful save never reuses the partial generation number.
func TestManagerCrashMidSaveKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	good := NewManager(nil, dir)
	st := sampleStore(t, dir)
	if _, err := good.Save(sampleCheckpoint(), st); err != nil {
		t.Fatal(err)
	}
	st.Abort()

	ffs := chaos.NewFaultFS(fsx.OS{}, chaos.FSConfig{Seed: 3, WriteError: 1}, nil)
	bad := NewManager(ffs, dir)
	badSt := openStore(t, ffs, dir)
	badSt.Index("anomalies").Put("a2", store.Document{"type": "after-the-cut"})
	if _, err := bad.Save(sampleCheckpoint(), badSt); !errors.Is(err, chaos.ErrInjectedWrite) {
		t.Fatalf("faulted save err = %v, want ErrInjectedWrite", err)
	}
	badSt.Abort()

	cp, ok, err := good.Load()
	if err != nil || !ok {
		t.Fatalf("Load after crashed save = %v, %v", ok, err)
	}
	if cp.Generation != 1 {
		t.Errorf("CURRENT moved to generation %d despite crashed save", cp.Generation)
	}
	st2 := openStore(t, nil, dir)
	if err := good.RestoreStore(cp, st2); err != nil {
		t.Fatalf("previous store generation unloadable: %v", err)
	}
	if _, ok := st2.Index("anomalies").Get("a1"); !ok {
		t.Error("previous store generation lost a1")
	}

	gen, err := good.Save(sampleCheckpoint(), st2)
	if err != nil {
		t.Fatal(err)
	}
	if gen < 2 {
		t.Errorf("recovered save reused generation %d", gen)
	}
	if cp2, ok, err := good.Load(); err != nil || !ok || cp2.Generation != gen {
		t.Errorf("Load after recovery = gen %d, %v, %v; want %d", cp2.Generation, ok, err, gen)
	}
}

// TestManagerENOSPCMidSave: the disk filling up during the store's seal
// fails the save while the previous generation stays restorable.
func TestManagerENOSPCMidSave(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(nil, dir)
	st := sampleStore(t, dir)
	if _, err := m.Save(sampleCheckpoint(), st); err != nil {
		t.Fatal(err)
	}
	st.Abort()
	ffs := chaos.NewFaultFS(fsx.OS{}, chaos.FSConfig{Seed: 7, ENOSPCAfter: 64}, nil)
	full := openStore(t, ffs, dir)
	full.Index("anomalies").Put("a2", store.Document{"type": "after-the-cut"})
	if _, err := NewManager(ffs, dir).Save(sampleCheckpoint(), full); !errors.Is(err, chaos.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	full.Abort()
	cp, ok, err := m.Load()
	if err != nil || !ok || cp.Generation != 1 {
		t.Fatalf("previous generation lost after ENOSPC: %v %v %+v", ok, err, cp)
	}
	st2 := openStore(t, nil, dir)
	if err := m.RestoreStore(cp, st2); err != nil {
		t.Fatalf("previous store generation unloadable after ENOSPC: %v", err)
	}
	if _, ok := st2.Index("anomalies").Get("a1"); !ok {
		t.Error("previous store generation lost a1")
	}
}
