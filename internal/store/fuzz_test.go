package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// corruptSegmentFile flips one byte inside the first record of the only
// segment file under dir, in place (same inode, so the store's open
// handle sees the corruption).
func corruptSegmentFile(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one segment file, got %v (%v)", matches, err)
	}
	f, err := os.OpenFile(matches[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(len(segMagic) + 9) // one byte into the first record's JSON
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// fuzzSeedSegment builds a small valid segment for the corpus. Every
// live document records a key for "time", so its footer carries a sort
// column; "a" and "c" tie on it across zones.
func fuzzSeedSegment() []byte {
	docs := []segDoc{
		{ID: "dead", Del: true},
		{ID: "a", Ord: 1, Doc: Document{"n": float64(1), "s": "x", "time": "2020-01-01T00:00:00Z"}},
		{ID: "b", Ord: 2, Doc: Document{"n": float64(2), "flag": true, "time": "2019-06-01T00:00:00.5+02:00"}},
		{ID: "c", Ord: 3, Doc: Document{"time": "2020-01-01T01:00:00+01:00"}},
	}
	for i := range docs {
		docs[i].times = parsedTimes(docs[i].Doc)
	}
	data, _, err := encodeSegment(nil, docs)
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzSegmentRoundTrip throws arbitrary bytes at the segment decoder.
// decodeSegment must never panic; corrupt or truncated input must come
// back as an error (the checksums catching it), and any segment it
// accepts must re-encode into a byte-identical file — segments are
// canonical by construction.
func FuzzSegmentRoundTrip(f *testing.F) {
	valid := fuzzSeedSegment()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(valid[:len(valid)/2])           // truncated mid-body
	f.Add(valid[:len(valid)-3])           // truncated trailer
	f.Add(append([]byte("x"), valid...))  // shifted
	flip := append([]byte(nil), valid...) // single bit flip in a record
	flip[len(segMagic)+6] ^= 0x40
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, docs, err := decodeSegment(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		live := 0
		for _, d := range docs {
			if !d.Del {
				live++
			}
		}
		if ft.Count != live {
			t.Fatalf("accepted segment disagrees with itself: Count=%d, %d live docs", ft.Count, live)
		}
		again, ft2, err := encodeSegment(nil, docs)
		if err != nil {
			t.Fatalf("accepted segment failed to re-encode: %v", err)
		}
		if !reflect.DeepEqual(ft.Entries, ft2.Entries) {
			t.Fatalf("re-encode changed the directory:\nwas  %+v\nnow %+v", ft.Entries, ft2.Entries)
		}
		if !reflect.DeepEqual(ft.Sort, ft2.Sort) {
			t.Fatalf("re-encode changed the sort columns:\nwas  %+v\nnow %+v", ft.Sort, ft2.Sort)
		}
		_, docs2, err := decodeSegment(again)
		if err != nil {
			t.Fatalf("re-encoded segment failed to decode: %v", err)
		}
		aj, _ := json.Marshal(docs)
		bj, _ := json.Marshal(docs2)
		if string(aj) != string(bj) {
			t.Fatalf("round trip lost documents:\nwas %s\nnow %s", aj, bj)
		}
	})
}

// FuzzSegmentBitFlips complements the byte-level fuzz with a targeted
// corruption sweep: a valid segment with any single byte flipped must be
// detected — either rejected outright or, when the flip lands in one
// record's body, caught by that record's checksum at fetch time. Silent
// acceptance of changed bytes is the one forbidden outcome.
func FuzzSegmentBitFlips(f *testing.F) {
	valid := fuzzSeedSegment()
	for i := 0; i < len(valid); i += 7 {
		f.Add(i, byte(1<<uint(i%8)))
	}
	f.Fuzz(func(t *testing.T, pos int, mask byte) {
		if pos < 0 || pos >= len(valid) || mask == 0 {
			return
		}
		data := append([]byte(nil), valid...)
		data[pos] ^= mask
		ft, docs, err := decodeSegment(data)
		if err != nil {
			return // detected at decode
		}
		// decodeSegment re-verifies every record, so surviving a flip
		// means the mutation landed in JSON content whose bytes still
		// checksum... which is impossible for a single flip: CRC32 detects
		// all 1-bit errors. The only acceptable success is pos inside the
		// footer's JSON payload producing semantically identical output.
		origFt, origDocs, _ := decodeSegment(valid)
		aj, _ := json.Marshal(struct {
			F *segFooter
			D []segDoc
		}{ft, docs})
		bj, _ := json.Marshal(struct {
			F *segFooter
			D []segDoc
		}{origFt, origDocs})
		if string(aj) != string(bj) {
			t.Fatalf("flip at %d/%#x silently changed the decoded segment:\nwas %s\nnow %s", pos, mask, bj, aj)
		}
	})
}

// FuzzManifestDecode: arbitrary bytes must never panic the manifest
// decoder, and anything it accepts must be structurally sane and survive
// an encode/decode round trip.
func FuzzManifestDecode(f *testing.F) {
	good, err := encodeManifest(&manifest{
		Generation: 3,
		WAL:        walName(3),
		NextSeg:    7,
		Pins:       []uint64{1},
		Indices: []manifestIndex{{
			Name: "logs", Seq: 2, Evicted: 1, NextOrd: 9,
			Segments: []manifestSegment{{File: "seg/000001-logs.seg", Bytes: 128, CRC: 42, Count: 3}},
		}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"crc":0,"payload":{}}`))
	f.Add([]byte(`{"crc":1,"payload":{"generation":1}}`))
	f.Add(good[:len(good)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if m.Generation == 0 {
			t.Fatal("decodeManifest accepted generation 0")
		}
		seen := map[string]bool{}
		for _, ix := range m.Indices {
			if ix.Name == "" || seen[ix.Name] {
				t.Fatalf("decodeManifest accepted bad index list: %+v", m.Indices)
			}
			seen[ix.Name] = true
			for _, sg := range ix.Segments {
				if sg.File == "" || sg.Bytes <= 0 {
					t.Fatalf("decodeManifest accepted bad segment entry: %+v", sg)
				}
			}
		}
		enc, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest failed to re-encode: %v", err)
		}
		m2, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest failed to decode: %v", err)
		}
		aj, _ := json.Marshal(m)
		bj, _ := json.Marshal(m2)
		if string(aj) != string(bj) {
			t.Fatalf("manifest round trip drifted:\nwas %s\nnow %s", aj, bj)
		}
	})
}

// encodeWAL frames records into WAL bytes, as the engine's log does one
// record at a time.
func encodeWAL(dst []byte, recs []walRecord) ([]byte, error) {
	for i := range recs {
		var err error
		if dst, err = appendWAL(dst, &recs[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// FuzzWALDecode: the WAL decoder must never panic, must only ever accept
// a prefix of what encodeWAL wrote, and the valid-prefix length it
// reports must never exceed the input.
func FuzzWALDecode(f *testing.F) {
	recs := []walRecord{
		{Op: walPut, Ix: "logs", ID: "a", Ord: 1, Doc: json.RawMessage(`{"n":1}`)},
		{Op: walDel, Ix: "logs", ID: "a"},
		{Op: walDelIx, Ix: "logs"},
	}
	good, err := encodeWAL(nil, recs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-2]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, valid := decodeWAL(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("decodeWAL reported valid prefix %d of %d bytes", valid, len(data))
		}
		// Re-encoding the accepted records must reproduce the valid
		// prefix byte for byte.
		enc, err := encodeWAL(nil, decoded)
		if err != nil {
			t.Fatalf("accepted WAL records failed to re-encode: %v", err)
		}
		if len(enc) != valid {
			t.Fatalf("re-encoded %d bytes, valid prefix was %d", len(enc), valid)
		}
		for i := range enc {
			if enc[i] != data[i] {
				t.Fatalf("re-encode differs at byte %d", i)
			}
		}
	})
}

// TestSegmentDecodeRejectsCorruptionTable is the deterministic spine of
// the fuzz targets: a fixed set of corruptions with the reason each must
// fail, so a checksum regression fails loudly in ordinary test runs
// where the fuzz engine never executes.
func TestSegmentDecodeRejectsCorruptionTable(t *testing.T) {
	valid := fuzzSeedSegment()
	mutate := func(m func([]byte) []byte) []byte {
		return m(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic-only", []byte(segMagic)},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"truncated-half", valid[:len(valid)/2]},
		{"truncated-trailer", valid[:len(valid)-5]},
		{"record-flip", mutate(func(b []byte) []byte { b[len(segMagic)+9] ^= 1; return b })},
		{"footer-flip", mutate(func(b []byte) []byte { b[len(b)-20] ^= 1; return b })},
		{"trailer-flip", mutate(func(b []byte) []byte { b[len(b)-10] ^= 1; return b })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := decodeSegment(tc.data); err == nil {
				t.Fatalf("decodeSegment accepted %s", tc.name)
			}
		})
	}
	if _, _, err := decodeSegment(valid); err != nil {
		t.Fatalf("decodeSegment rejected the valid segment: %v", err)
	}
}

// refooter returns valid with its footer replaced by mut's edit of it,
// under a correct checksum: corruption only the footer's own checks can
// catch.
func refooter(t *testing.T, valid []byte, mut func(*segFooter)) []byte {
	t.Helper()
	ft, ftOff, err := decodeFooter(int64(len(valid)), valid, 0)
	if err != nil {
		t.Fatal(err)
	}
	mut(ft)
	js, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte(nil), valid[:ftOff]...), js...)
	var tail [16]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(js)))
	binary.LittleEndian.PutUint32(tail[4:8], crc32.ChecksumIEEE(js))
	copy(tail[8:], segMagic)
	return append(out, tail[:]...)
}

// TestSortColumnCorruptionRejected: a footer whose sort column is
// malformed fails decoding as corruption — at open (decodeFooter) and in
// the deep verify (decodeSegment) — and never panics. A key that is not
// its document's can only be seen by reading the document, so only the
// deep verify rejects it. The seed segment the fuzz targets start from
// carries the column these cases corrupt.
func TestSortColumnCorruptionRejected(t *testing.T) {
	valid := fuzzSeedSegment()
	ft, docs, err := decodeSegment(valid)
	if err != nil {
		t.Fatal(err)
	}
	col := ft.Sort["time"]
	if col == nil || len(col.Pos) != 3 || fmt.Sprint(col.Pos) != "[2 1 3]" {
		t.Fatalf("seed segment's time column = %+v, want positions [2 1 3]", col)
	}
	if len(docs[1].times) != 1 || docs[1].times[0].key() != col.key(1) {
		t.Fatalf("decoded document a carries keys %+v", docs[1].times)
	}
	edit := func(f func(c *sortColumn)) func(*segFooter) {
		return func(ft *segFooter) { f(ft.Sort["time"]) }
	}
	cases := []struct {
		name     string
		mut      func(*segFooter)
		deepOnly bool
	}{
		{"position out of range", edit(func(c *sortColumn) { c.Pos[0] = 4 }), false},
		{"negative position", edit(func(c *sortColumn) { c.Pos[0] = -1 }), false},
		{"repeated position", edit(func(c *sortColumn) { c.Pos[2] = c.Pos[1] }), false},
		{"tombstone position", edit(func(c *sortColumn) { c.Pos[0] = 0 }), false},
		{"out of key order", edit(func(c *sortColumn) { c.Pos[0], c.Pos[1] = c.Pos[1], c.Pos[0]; c.Sec[0], c.Sec[1] = c.Sec[1], c.Sec[0] }), false},
		{"tie out of ord order", edit(func(c *sortColumn) { c.Pos[1], c.Pos[2] = c.Pos[2], c.Pos[1] }), false},
		{"missing entry", edit(func(c *sortColumn) { c.Pos, c.Sec, c.Nsec = c.Pos[:2], c.Sec[:2], c.Nsec[:2] }), false},
		{"short keys", edit(func(c *sortColumn) { c.Nsec = c.Nsec[:2] }), false},
		{"nanoseconds out of range", edit(func(c *sortColumn) { c.Nsec[2] = 1e9 }), false},
		{"null column", func(ft *segFooter) { ft.Sort["time"] = nil }, false},
		{"empty column", func(ft *segFooter) { ft.Sort["time"] = &sortColumn{} }, false},
		{"key not the document's", edit(func(c *sortColumn) { c.Sec[2]++ }), true},
		{"column for another field", func(ft *segFooter) { ft.Sort["n"] = ft.Sort["time"] }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := refooter(t, valid, tc.mut)
			_, _, err := decodeFooter(int64(len(data)), data, 0)
			if tc.deepOnly != (err == nil) {
				t.Fatalf("decodeFooter error = %v, deep-only %v", err, tc.deepOnly)
			}
			if _, _, err := decodeSegment(data); err == nil {
				t.Fatal("decodeSegment accepted the corrupt column")
			}
		})
	}
	if _, _, err := decodeSegment(refooter(t, valid, func(*segFooter) {})); err != nil {
		t.Fatalf("an unedited re-footer was rejected: %v", err)
	}
	noCol := refooter(t, valid, func(ft *segFooter) { ft.Sort = nil })
	if ft, _, err := decodeSegment(noCol); err != nil || ft.Sort != nil {
		t.Fatalf("a footer without columns (as older segments have): %v, %+v", err, ft.Sort)
	}
}

// TestSegmentFetchDetectsRecordCorruption covers the read path the fuzz
// targets cannot reach: a flipped byte inside a sealed record must fail
// the per-record checksum at fetch time, count as a read error, and skip
// the document rather than serve garbage.
func TestSegmentFetchDetectsRecordCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	defer s.Close()
	ix := s.Index("logs")
	for i := 0; i < 4; i++ {
		ix.Put(fmt.Sprintf("d%d", i), Document{"n": i, "pad": "xxxxxxxxxxxxxxxx"})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one record byte in the (only) segment file on disk.
	st := s.Stats()
	if len(st.Indices) != 1 || st.Indices[0].Segments != 1 {
		t.Fatalf("unexpected layout: %+v", st.Indices)
	}
	corruptSegmentFile(t, dir)

	found := 0
	for i := 0; i < 4; i++ {
		if _, ok := ix.Get(fmt.Sprintf("d%d", i)); ok {
			found++
		}
	}
	if found == 4 {
		t.Fatal("corrupted record served as if intact")
	}
	after := s.Stats()
	if after.ReadErrors == 0 {
		t.Fatal("record corruption not counted as a read error")
	}
	if after.LastError == "" {
		t.Fatal("record corruption not surfaced in LastError")
	}
}
