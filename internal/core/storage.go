// Storage wiring: StorageConfig opens the pipeline's store in a data
// directory, which makes it persistent and checkpoints incremental —
// internal/recovery records the store's manifest generation instead of
// copying every index. Without a directory the store runs the same
// engine in memory.
package core

import (
	"fmt"
	"time"

	"loglens/internal/fsx"
	"loglens/internal/modelmgr"
	"loglens/internal/obs"
	"loglens/internal/store"
)

// StorageConfig configures the pipeline's store. The zero value keeps it
// in memory.
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

// openStore opens the pipeline's store: in cfg.Storage.Dir, or in memory
// when it is empty.
func openStore(cfg Config) (*store.Store, error) {
	st, err := store.Open(store.Options{
		Dir:               cfg.Storage.Dir,
		FS:                cfg.Storage.FS,
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
