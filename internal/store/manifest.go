// Manifests: the store's commit points. A manifest generation
// is one immutable JSON file (MANIFEST-<gen>.json, written atomically)
// naming every segment file of every index plus the WAL that carries
// mutations since the cut; the CURRENT file — written last, atomically —
// points at the live generation. The layout deliberately mirrors
// internal/recovery's checkpoint-<gen>.json + CURRENT scheme: a pipeline
// checkpoint just records the store generation it cut, and restore means
// re-pointing at that generation — segments are referenced, never
// re-copied.
//
// Crash invariant: every file a manifest references is fully written and
// closed before the manifest is written, and the manifest is fully
// written before CURRENT moves. A crash anywhere in between leaves the
// previous generation (and its WAL) untouched.
package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
	"time"
)

// manifestSegment is one referenced segment file.
type manifestSegment struct {
	File   string    `json:"file"`
	Bytes  int64     `json:"bytes"`
	CRC    uint32    `json:"crc"`
	Count  int       `json:"count"`
	Bucket time.Time `json:"bucket"`
}

// manifestIndex is the durable state of one index at the cut: counters
// that cannot be rebuilt from segments alone, plus the segment list in
// scan order (oldest first).
type manifestIndex struct {
	Name     string            `json:"name"`
	Seq      uint64            `json:"seq,omitempty"`
	Evicted  uint64            `json:"evicted,omitempty"`
	NextOrd  uint64            `json:"next_ord,omitempty"`
	Segments []manifestSegment `json:"segments,omitempty"`
}

// manifest is one generation of the store.
type manifest struct {
	Generation uint64 `json:"generation"`
	WAL        string `json:"wal"`
	NextSeg    uint64 `json:"next_seg"`
	// Pins carries checkpoint-referenced generations forward so they
	// survive GC across a process restart (recovery re-pins on restore,
	// but GC must not outrun it).
	Pins    []uint64        `json:"pins,omitempty"`
	Indices []manifestIndex `json:"indices,omitempty"`
}

// manifestEnvelope wraps the payload with a checksum so a damaged
// manifest is detected (and rejected) rather than half-trusted.
type manifestEnvelope struct {
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

func encodeManifest(m *manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("store: manifest: encode: %w", err)
	}
	return json.Marshal(manifestEnvelope{CRC: crc32.ChecksumIEEE(payload), Payload: payload})
}

// decodeManifest validates envelope, checksum, and structural sanity.
// Arbitrary bytes (the fuzz surface) must come back as an error, never a
// panic or a half-valid manifest.
func decodeManifest(data []byte) (*manifest, error) {
	var env manifestEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("store: manifest: decode: %w", err)
	}
	if crc32.ChecksumIEEE(env.Payload) != env.CRC {
		return nil, fmt.Errorf("store: manifest: %w", errBadCheck)
	}
	var m manifest
	if err := json.Unmarshal(env.Payload, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: decode payload: %w", err)
	}
	if m.Generation == 0 {
		return nil, fmt.Errorf("store: manifest: missing generation")
	}
	if m.WAL != "" && (strings.Contains(m.WAL, "/") || strings.Contains(m.WAL, "\\")) {
		return nil, fmt.Errorf("store: manifest: invalid wal name %q", m.WAL)
	}
	seen := make(map[string]bool, len(m.Indices))
	for i := range m.Indices {
		ix := &m.Indices[i]
		if ix.Name == "" || seen[ix.Name] {
			return nil, fmt.Errorf("store: manifest: bad index entry %q", ix.Name)
		}
		seen[ix.Name] = true
		for j := range ix.Segments {
			sg := &ix.Segments[j]
			if sg.File == "" || strings.Contains(sg.File, "..") || sg.Bytes <= 0 || sg.Count < 0 {
				return nil, fmt.Errorf("store: manifest: bad segment entry %q", sg.File)
			}
		}
	}
	return &m, nil
}

// sortIndices puts the manifest's index list in name order so manifests
// are byte-deterministic for a given state.
func (m *manifest) sortIndices() {
	sort.Slice(m.Indices, func(i, j int) bool { return m.Indices[i].Name < m.Indices[j].Name })
}

func manifestName(gen uint64) string {
	return fmt.Sprintf("MANIFEST-%06d.json", gen)
}

func walName(gen uint64) string {
	return fmt.Sprintf("wal-%06d.log", gen)
}

// parseManifestGen extracts the generation from a manifest file name,
// returning false for names that are not manifests.
func parseManifestGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "MANIFEST-") || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "MANIFEST-"), ".json"), 10, 64)
	if err != nil || gen == 0 {
		return 0, false
	}
	return gen, true
}
