// Storage wiring: StorageConfig opens the pipeline's store in a data
// directory, which makes it persistent. A checkpointed pipeline without
// one keeps its store in the checkpoint directory, so every checkpoint
// takes the one path: internal/recovery records the store's manifest
// generation. Without either directory the store runs the same engine in
// memory.
package core

import (
	"fmt"
	"path/filepath"
	"time"

	"loglens/internal/fsx"
	"loglens/internal/modelmgr"
	"loglens/internal/obs"
	"loglens/internal/recovery"
	"loglens/internal/store"
)

// StorageConfig configures the pipeline's store. The zero value keeps it
// in memory, or in <Recovery.Dir>/store when recovery is on.
type StorageConfig struct {
	// Dir is the data directory; non-empty makes the store persistent.
	Dir string
	// Retention, when positive, ages whole segments of log/anomaly
	// storage out once they fall behind this horizon. Model storage is
	// always exempt. Zero keeps everything.
	Retention time.Duration
	// FS is the filesystem the engine writes through (default the OS;
	// the chaos harness injects storage faults here). Setting it without
	// Dir fails the open.
	FS fsx.FS
	// FlushInterval, CompactInterval, and RetentionInterval enable the
	// engine's background maintenance loops on the pipeline clock when
	// positive. Zero leaves maintenance to checkpoints and explicit
	// calls — the default for tests driving a fake clock.
	FlushInterval     time.Duration
	CompactInterval   time.Duration
	RetentionInterval time.Duration
}

// openStore opens the pipeline's store: in cfg.Storage.Dir; failing
// that in the store directory under cfg.Recovery.Dir, through the
// checkpoints' filesystem; in memory when neither is set. A store under
// the checkpoint directory holds only what a checkpoint describes: while
// no checkpoint exists, whatever a killed run left there is removed, so
// replaying the input from the start stores nothing twice.
func openStore(cfg Config) (*store.Store, error) {
	dir, fsys := cfg.Storage.Dir, cfg.Storage.FS
	if dir == "" && fsys == nil && cfg.Recovery.enabled() {
		dir, fsys = filepath.Join(cfg.Recovery.Dir, "store"), cfg.Recovery.FS
		if fsys == nil {
			fsys = fsx.OS{}
		}
		if _, ok, err := recovery.NewManager(fsys, cfg.Recovery.Dir).Load(); err == nil && !ok {
			if err := fsys.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("core: clear uncheckpointed store: %w", err)
			}
		}
	}
	st, err := store.Open(store.Options{
		Dir:               dir,
		FS:                fsys,
		Clock:             cfg.Clock,
		Retention:         cfg.Storage.Retention,
		RetentionExempt:   []string{modelmgr.ModelsIndex},
		FlushInterval:     cfg.Storage.FlushInterval,
		CompactInterval:   cfg.Storage.CompactInterval,
		RetentionInterval: cfg.Storage.RetentionInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open storage: %w", err)
	}
	return st, nil
}

// storageProbe reports segment-engine health: degraded while the engine
// carries an unresolved disk error, healthy otherwise.
func (p *Pipeline) storageProbe() obs.ProbeResult {
	st := p.store.Stats()
	if st.LastError != "" {
		return obs.ProbeResult{Status: obs.Degraded,
			Detail: "storage error: " + st.LastError}
	}
	docs := 0
	for _, ix := range st.Indices {
		docs += ix.Docs
	}
	return obs.ProbeResult{Status: obs.Healthy, Detail: fmt.Sprintf(
		"generation %d, %d indices, %d docs, %d flushes", st.Generation, len(st.Indices), docs, st.Flushes)}
}
