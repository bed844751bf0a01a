package store

import (
	"encoding/json"
	"fmt"
	"net/url"
	"path/filepath"
	"strings"

	"loglens/internal/fsx"
)

// validateDump checks that a snapshot payload parses as a Dump without
// mutating anything — the pre-flight pass behind LoadDirFS's
// all-or-nothing guarantee.
func validateDump(data []byte) error {
	var docs map[string]Document
	return json.Unmarshal(data, &docs)
}

// SaveDirFS snapshots every index into dir on fsys (fsx.OS when nil),
// one JSON file per index — the checkpoint form of a store that is not
// Persistent. Snapshot files for indices that no longer exist are
// removed. Every snapshot file is written atomically (temp + rename), so
// a crash or injected fault mid-save never leaves a torn snapshot at a
// live path; at worst the directory holds a mix of old and new
// generations of different indices, each individually consistent.
func (s *Store) SaveDirFS(fsys fsx.FS, dir string) error {
	if fsys == nil {
		fsys = fsx.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	live := make(map[string]bool)
	for _, name := range s.Indices() {
		data, err := s.Index(name).Dump()
		if err != nil {
			return fmt.Errorf("store: save index %q: %w", name, err)
		}
		file := indexFile(name)
		live[file] = true
		if err := fsx.WriteFileAtomic(fsys, filepath.Join(dir, file), data, 0o644); err != nil {
			return fmt.Errorf("store: save index %q: %w", name, err)
		}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".index.json") && !live[e.Name()] {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// LoadDirFS restores every index snapshot found in dir on fsys (fsx.OS
// when nil), replacing the contents of indices with matching names and
// creating missing ones. The load is all-or-nothing: every snapshot file
// is read and parsed before any index is touched, so a corrupt or
// truncated snapshot leaves the store exactly as it was — never
// half-replaced.
func (s *Store) LoadDirFS(fsys fsx.FS, dir string) error {
	if fsys == nil {
		fsys = fsx.OS{}
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: load: %w", err)
	}
	// Phase 1: read and validate everything without mutating the store.
	type pending struct {
		name string
		data []byte
	}
	var loads []pending
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".index.json") {
			continue
		}
		name, err := indexName(e.Name())
		if err != nil {
			return err
		}
		data, err := fsys.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return fmt.Errorf("store: load index %q: %w", name, err)
		}
		if err := validateDump(data); err != nil {
			return fmt.Errorf("store: load index %q: %w", name, err)
		}
		loads = append(loads, pending{name: name, data: data})
	}
	// Phase 2: install. Every payload already validated, so Load cannot
	// fail halfway through the set.
	for _, p := range loads {
		if err := s.Index(p.name).Load(p.data); err != nil {
			return err
		}
	}
	return nil
}

// indexFile maps an index name to a safe file name.
func indexFile(name string) string {
	return url.PathEscape(name) + ".index.json"
}

// indexName reverses indexFile.
func indexName(file string) (string, error) {
	base := strings.TrimSuffix(file, ".index.json")
	name, err := url.PathUnescape(base)
	if err != nil {
		return "", fmt.Errorf("store: load: bad snapshot file %q: %w", file, err)
	}
	return name, nil
}
