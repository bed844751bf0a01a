// Package recovery is the crash-recovery subsystem: periodic atomic
// checkpoints of pipeline state (committed bus offsets, per-partition
// operator state, model bindings, the store's manifest generation),
// supervised restarts with exponential backoff and a circuit breaker,
// and a poison-record quarantine routing repeat offenders to a
// deadletter topic.
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
//	CURRENT                 name of the newest complete checkpoint file
//
// The store a checkpoint belongs to keeps its own directory (a pipeline
// without a data directory puts it in store/ under the checkpoint
// directory). A checkpoint names the store's manifest generation; the
// store's immutable segment files back it in place.
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
	// StoreGen is the store's manifest generation at the checkpoint
	// barrier: the store's immutable segment files back the checkpoint in
	// place, and restore re-points the store at that generation. Zero
	// means the checkpoint was saved without a store.
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

// parseGen extracts the generation from a checkpoint file name; ok is
// false for foreign names.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".json"), 10, 64)
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

// Save writes one complete checkpoint generation: the store's seal
// first (st.Checkpoint, which pins the committed manifest generation),
// then the checkpoint JSON, then the CURRENT pointer — each atomically,
// so a crash at any point leaves the previous generation intact and
// discoverable. A store that is not Persistent is refused: nothing could
// restore its generation after a crash. On success older generations
// beyond the keep window are garbage-collected.
func (m *Manager) Save(cp *Checkpoint, st *store.Store) (uint64, error) {
	if st != nil && !st.Persistent() {
		return 0, fmt.Errorf("recovery: save: the store keeps no files, so its checkpoint could not be restored")
	}
	if err := m.fs.MkdirAll(m.dir, 0o755); err != nil {
		return 0, fmt.Errorf("recovery: save: %w", err)
	}
	gen := m.nextGeneration()
	cp.Generation = gen
	cp.StoreGen = 0
	if st != nil {
		sg, err := st.Checkpoint()
		if err != nil {
			return 0, fmt.Errorf("recovery: checkpoint store: %w", err)
		}
		cp.StoreGen = sg
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

// RestoreStore re-points st at the manifest generation the checkpoint
// pinned (a no-op without a store). A checkpoint without a store
// generation is refused: restoring its offsets and counters over a store
// it does not describe would lose documents without a word.
func (m *Manager) RestoreStore(cp *Checkpoint, st *store.Store) error {
	if st == nil {
		return nil
	}
	if cp.StoreGen == 0 {
		return fmt.Errorf("recovery: restore: checkpoint generation %d names no store generation "+
			"(written by an older build's per-index snapshot format); clear %s and replay the input", cp.Generation, m.dir)
	}
	return st.LoadGeneration(cp.StoreGen)
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
		if gen, ok := parseGen(e.Name()); ok && gen < floor {
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
		if gen, ok := parseGen(e.Name()); ok {
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
