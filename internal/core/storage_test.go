package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loglens/internal/obs"
	"loglens/internal/recovery"
)

// persistentDirs returns (checkpointDir, dataDir) under one test temp
// root — the layout cmd/loglens runs with -checkpoint-dir and -data-dir.
func persistentDirs(t *testing.T) (string, string) {
	t.Helper()
	root := t.TempDir()
	return filepath.Join(root, "ckpt"), filepath.Join(root, "data")
}

// TestPersistentStoreKillRestart is the segment engine's end-to-end
// proof: a pipeline running on the persistent store is killed mid-stream
// and restored from its checkpoint — which records only the store's
// manifest generation, no copied snapshot — and the replayed run must
// land on the exact end state of the uninterrupted in-memory golden run:
// same conservation counters, same stored-anomaly multiset.
func TestPersistentStoreKillRestart(t *testing.T) {
	const nParsed, nUnparsed = 40, 8
	_, prod := conservationCorpus(nParsed, nUnparsed)
	n := uint64(len(prod))

	// Golden run with its store in the checkpoint directory: the run on
	// a data directory must be indistinguishable from it.
	golden := goldenRun(t, prod)
	assertConservation(t, golden, n)

	ckptDir, dataDir := persistentDirs(t)
	withStorage := func(cfg *Config) {
		cfg.Storage = StorageConfig{Dir: dataDir}
	}
	training, _ := conservationCorpus(0, 0)

	p1 := newRecoveryPipeline(t, ckptDir, withStorage)
	if !p1.Store().Persistent() {
		t.Fatal("pipeline store is not persistent")
	}
	if _, _, err := p1.Train("recovery", training); err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	ag1, err := p1.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	const ckptAt, killAt = 20, 35
	feed(t, ag1, prod[:ckptAt])
	if err := p1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen, err := p1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("checkpoint generation 0")
	}
	feed(t, ag1, prod[ckptAt:killAt])
	p1.Kill()

	// The checkpoint must be incremental: it records the store
	// generation and copies no store snapshot directory.
	cp, ok, err := recovery.NewManager(nil, ckptDir).Load()
	if err != nil || !ok {
		t.Fatalf("load checkpoint: %v, %v", err, ok)
	}
	if cp.StoreGen == 0 {
		t.Fatal("persistent-store checkpoint did not record a store generation")
	}
	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "store-") {
			t.Fatalf("checkpoint dir holds a store snapshot copy %q", e.Name())
		}
	}
	// The generation it references is backed by immutable segment files.
	segs, err := os.ReadDir(filepath.Join(dataDir, "seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files back the checkpoint: %v (%d entries)", err, len(segs))
	}

	p2 := newRecoveryPipeline(t, ckptDir, withStorage)
	restored, err := p2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("Restore found no checkpoint")
	}
	if m := p2.Model(); m == nil || m.ID != "recovery" {
		t.Fatalf("restored model = %v (model storage not restored from segments)", m)
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	ag2, err := p2.Agent("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ag2, prod)
	if err := p2.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := collectResult(p2)
	if err := p2.Stop(); err != nil {
		t.Fatal(err)
	}
	assertConservation(t, res, n)
	assertSameResult(t, res, golden)

	// A clean stop seals everything: a third process sees the full end
	// state straight from the segments.
	p3 := newRecoveryPipeline(t, ckptDir, withStorage)
	got := anomalySignature(p3)
	if len(got) != len(golden.sig) {
		t.Fatalf("reopened store holds %d anomalies, want %d", len(got), len(golden.sig))
	}
	for i := range got {
		if got[i] != golden.sig[i] {
			t.Fatalf("reopened anomaly %d = %q, golden %q", i, got[i], golden.sig[i])
		}
	}
	if err := p3.Store().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStorageProbe wires a persistent pipeline into the ops plane: the
// storage probe registers and reports healthy, and Stats carries the
// fields /api/storage serves (the HTTP side lives in internal/dashboard).
func TestStorageProbe(t *testing.T) {
	_, dataDir := persistentDirs(t)
	ops := obs.New(nil)
	p, err := New(Config{
		DisableHeartbeat: true,
		Ops:              ops,
		Storage:          StorageConfig{Dir: dataDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Store().Close()
	p.Store().Index("anomalies").Put("a1", map[string]any{"type": "x"})
	if err := p.Store().Flush(); err != nil {
		t.Fatal(err)
	}

	_, probes := ops.Health.Check()
	res, ok := probes["storage"]
	if !ok {
		t.Fatalf("no storage probe registered (probes: %v)", probes)
	}
	if res.Status != obs.Healthy {
		t.Fatalf("storage probe = %+v, want healthy", res)
	}
	if !strings.Contains(res.Detail, "generation") {
		t.Fatalf("storage probe detail %q lacks generation", res.Detail)
	}

	st := p.Store().Stats()
	if !st.Persistent || st.Generation < 2 || st.Flushes == 0 {
		t.Fatalf("Stats() = %+v, want persistent with a committed flush", st)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"persistent":true`) {
		t.Fatalf("stats JSON %s lacks persistent flag", data)
	}
}
