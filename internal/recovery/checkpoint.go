// Package recovery is the crash-recovery subsystem: periodic atomic
// checkpoints of pipeline state (committed bus offsets, per-partition
// operator state, model bindings, store snapshot generation), supervised
// restarts with exponential backoff and a circuit breaker, and a
// poison-record quarantine routing repeat offenders to a deadletter
// topic.
//
// The Spark substrate LogLens was designed on gets these for free from
// the engine (checkpointing, task re-execution, at-least-once delivery);
// internal/stream and internal/bus replace Spark and Kafka, so this
// package supplies the recovery contract the paper's deployment story
// (§VII: "LogLens in production") presumes.
//
// Checkpoint layout under the checkpoint directory:
//
//	checkpoint-<gen>.json   the serialized Checkpoint (atomic write)
//	store-<gen>/            the store snapshot backing that generation
//	CURRENT                 name of the newest complete checkpoint file
//
// CURRENT is written last, atomically: a crash mid-save leaves it
// pointing at the previous complete generation. Old generations beyond a
// small keep window are garbage-collected after CURRENT moves.
package recovery

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"loglens/internal/fsx"
	"loglens/internal/parser"
	"loglens/internal/seqdetect"
	"loglens/internal/store"
	"loglens/internal/volume"
)

// KeyState is one state-map entry of one partition: the per-source
// operator state under its "__op@<source>" key.
type KeyState struct {
	Key string `json:"key"`
	// ModelID names the model the state was built against; restore
	// re-resolves it from the restored model store.
	ModelID  string                `json:"model_id,omitempty"`
	Parser   *parser.SavedState    `json:"parser,omitempty"`
	Detector *seqdetect.SavedState `json:"detector,omitempty"`
	Volume   *volume.SavedState    `json:"volume,omitempty"`
}

// PartitionState is one partition's serialized state map.
type PartitionState struct {
	Index int        `json:"index"`
	Keys  []KeyState `json:"keys,omitempty"`
}

// EngineState is one stream engine's serialized partitions, labeled by
// engine name.
type EngineState struct {
	Name       string           `json:"name"`
	Partitions []PartitionState `json:"partitions,omitempty"`
}

// Checkpoint is everything a restarted pipeline needs to resume as if
// uninterrupted: replay the bus from Offsets, rebuild operator state
// from Engines, and rebind models by ID against the restored store.
type Checkpoint struct {
	Generation uint64    `json:"generation"`
	SavedAt    time.Time `json:"saved_at"`
	// Offsets maps consumer group -> "topic/partition" -> committed
	// offset at the checkpoint barrier.
	Offsets map[string]map[string]int64 `json:"offsets,omitempty"`
	// Counters carries the pipeline's cumulative conservation counters
	// (lines/parsed/unparsed/quarantined/...), keyed by counter name.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// DefaultModelID and SourceModels rebind the active models by ID.
	DefaultModelID string            `json:"default_model_id,omitempty"`
	SourceModels   map[string]string `json:"source_models,omitempty"`
	Engines        []EngineState     `json:"engines,omitempty"`
	// Quarantine carries pending poison-record strike counts.
	Quarantine map[string]int `json:"quarantine,omitempty"`
	// StoreDir names the store snapshot directory of this generation,
	// relative to the checkpoint directory.
	StoreDir string `json:"store_dir,omitempty"`
	// StoreGen is the persistent store's manifest generation at the
	// checkpoint barrier. When set, the snapshot is incremental: the
	// store's immutable segment files back the checkpoint in place, and
	// restore re-points the store at that generation instead of reloading
	// a StoreDir copy.
	StoreGen uint64 `json:"store_gen,omitempty"`
}

// currentFile is the pointer to the newest complete checkpoint.
const currentFile = "CURRENT"

// DefaultKeep is how many complete generations Save retains.
const DefaultKeep = 2

// Manager reads and writes checkpoint generations in one directory.
type Manager struct {
	fs   fsx.FS
	dir  string
	keep int
}

// NewManager manages checkpoints under dir on fsys (fsx.OS when nil),
// keeping DefaultKeep generations.
func NewManager(fsys fsx.FS, dir string) *Manager {
	if fsys == nil {
		fsys = fsx.OS{}
	}
	return &Manager{fs: fsys, dir: dir, keep: DefaultKeep}
}

// SetKeep overrides how many generations Save retains (minimum 1).
func (m *Manager) SetKeep(n int) {
	if n >= 1 {
		m.keep = n
	}
}

// Dir returns the checkpoint directory.
func (m *Manager) Dir() string { return m.dir }

func (m *Manager) path(name string) string {
	return strings.TrimSuffix(m.dir, "/") + "/" + name
}

func checkpointFile(gen uint64) string {
	return "checkpoint-" + strconv.FormatUint(gen, 10) + ".json"
}

// parseGen extracts the generation from a checkpoint file or store dir
// name; ok is false for foreign names.
func parseGen(name string) (uint64, bool) {
	var num string
	switch {
	case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".json"):
		num = strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".json")
	case strings.HasPrefix(name, "store-"):
		num = strings.TrimPrefix(name, "store-")
	default:
		return 0, false
	}
	gen, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Load reads the newest complete checkpoint. ok is false when the
// directory holds no complete checkpoint (fresh start); err reports a
// checkpoint that exists but cannot be read.
func (m *Manager) Load() (cp *Checkpoint, ok bool, err error) {
	cur, rerr := m.fs.ReadFile(m.path(currentFile))
	if rerr != nil {
		return nil, false, nil
	}
	name := strings.TrimSpace(string(cur))
	if _, valid := parseGen(name); !valid {
		return nil, false, fmt.Errorf("recovery: corrupt CURRENT pointer %q", name)
	}
	data, rerr := m.fs.ReadFile(m.path(name))
	if rerr != nil {
		return nil, false, fmt.Errorf("recovery: read %s: %w", name, rerr)
	}
	cp = &Checkpoint{}
	if jerr := json.Unmarshal(data, cp); jerr != nil {
		return nil, false, fmt.Errorf("recovery: parse %s: %w", name, jerr)
	}
	return cp, true, nil
}

// nextGeneration determines the generation Save will write: one past the
// highest generation present on disk (complete or not), so a partially
// written generation from a crashed save is never reused as-is underneath
// a CURRENT pointer that might later claim it.
func (m *Manager) nextGeneration() uint64 {
	var max uint64
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return 1
	}
	for _, e := range entries {
		if gen, ok := parseGen(e.Name()); ok && gen > max {
			max = gen
		}
	}
	return max + 1
}

// Save writes one complete checkpoint generation: the store snapshot
// first, then the checkpoint JSON, then the CURRENT pointer — each
// atomically, so a crash at any point leaves the previous generation
// intact and discoverable. On success older generations beyond the keep
// window are garbage-collected.
func (m *Manager) Save(cp *Checkpoint, st *store.Store) (uint64, error) {
	if err := m.fs.MkdirAll(m.dir, 0o755); err != nil {
		return 0, fmt.Errorf("recovery: save: %w", err)
	}
	gen := m.nextGeneration()
	cp.Generation = gen
	cp.StoreDir, cp.StoreGen = "", 0
	switch {
	case st == nil:
	case st.Persistent():
		// Incremental: seal the store and pin the committed generation.
		// The checkpoint references the store's immutable segments rather
		// than copying every document.
		sg, err := st.Checkpoint()
		if err != nil {
			return 0, fmt.Errorf("recovery: checkpoint store: %w", err)
		}
		cp.StoreGen = sg
	default:
		cp.StoreDir = "store-" + strconv.FormatUint(gen, 10)
		if err := st.SaveDirFS(m.fs, m.path(cp.StoreDir)); err != nil {
			return 0, fmt.Errorf("recovery: save store snapshot: %w", err)
		}
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("recovery: encode checkpoint: %w", err)
	}
	name := checkpointFile(gen)
	if err := fsx.WriteFileAtomic(m.fs, m.path(name), data, 0o644); err != nil {
		return 0, err
	}
	if err := fsx.WriteFileAtomic(m.fs, m.path(currentFile), []byte(name+"\n"), 0o644); err != nil {
		return 0, err
	}
	m.gc(gen)
	return gen, nil
}

// RestoreStore loads the checkpoint's store snapshot into st (no-op for
// checkpoints without one). Persistent-store checkpoints re-point the
// engine at the pinned manifest generation; in-memory checkpoints reload
// the copied StoreDir snapshot.
func (m *Manager) RestoreStore(cp *Checkpoint, st *store.Store) error {
	if st == nil {
		return nil
	}
	if cp.StoreGen > 0 {
		return st.LoadGeneration(cp.StoreGen)
	}
	if cp.StoreDir == "" {
		return nil
	}
	return st.LoadDirFS(m.fs, m.path(cp.StoreDir))
}

// gc removes generations older than the keep window. Best-effort: GC
// failures never fail a completed save.
func (m *Manager) gc(newest uint64) {
	if newest <= uint64(m.keep) {
		return
	}
	floor := newest - uint64(m.keep) + 1
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		gen, ok := parseGen(e.Name())
		if !ok || gen >= floor {
			continue
		}
		if e.IsDir() {
			m.fs.RemoveAll(m.path(e.Name()))
		} else {
			m.fs.Remove(m.path(e.Name()))
		}
	}
}

// Generations lists the checkpoint generations present (complete or
// partial), ascending.
func (m *Manager) Generations() []uint64 {
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return nil
	}
	seen := make(map[uint64]bool)
	for _, e := range entries {
		if gen, ok := parseGen(e.Name()); ok && strings.HasSuffix(e.Name(), ".json") {
			seen[gen] = true
		}
	}
	out := make([]uint64, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
