// Write-ahead log: every mutation of the store is framed and
// checksummed into wal-<generation>.log before (or with) its
// acknowledgement, so a crash between manifest commits replays to exactly
// the acknowledged state. The WAL is the only append-in-place file in the
// engine — everything else goes through atomic temp+rename — so it is
// also the only place a torn tail can appear. Replay stops at the first
// frame whose length or checksum fails: the torn suffix is discarded (it
// was never acknowledged), and the writer repairs the file by an atomic
// rewrite from its in-memory byte log before appending again. A valid
// frame whose op replay does not know fails the open instead: skipping
// it would drop a mutation without a word.
//
// The writer keeps the generation's WAL as one byte log (engine.wal):
// wal[:walOnDisk] is on disk, the tail is pending. Records are framed
// straight into it, an append writes the pending tail, a rewrite writes
// the whole log as it is, and a seal truncates it to zero length, so the
// buffer is reused from one generation to the next. A volatile store
// (one without a directory) keeps no byte log and writes no WAL file: it
// only adds up its records' sizes (walRecordSize), so its seals come at
// the same WAL size.
package store

import (
	"encoding/json"
	"fmt"
	"strconv"

	"loglens/internal/frame"
)

// WAL operation codes.
const (
	walPut   = "put"   // store a document: Ix, ID, Ord, Seq, Doc
	walDel   = "del"   // delete a document: Ix, ID
	walMkIx  = "mkix"  // index created: Ix
	walDelIx = "delix" // index dropped: Ix
)

// walRecord is one logged mutation. Doc stays raw so replay re-decodes
// it into exactly the canonical (JSON round-tripped) form queries see.
type walRecord struct {
	Op  string          `json:"op"`
	Ix  string          `json:"ix"`
	ID  string          `json:"id,omitempty"`
	Ord uint64          `json:"ord,omitempty"`
	Seq uint64          `json:"seq,omitempty"`
	Doc json.RawMessage `json:"doc,omitempty"`
}

// appendWAL frames one record onto dst; on error dst is unchanged.
func appendWAL(dst []byte, rec *walRecord) ([]byte, error) {
	dst, err := frame.Append(dst, rec, appendWALRecord)
	if err != nil {
		return dst, fmt.Errorf("store: wal: encode %s: %w", rec.Op, err)
	}
	return dst, nil
}

// appendWALRecord appends rec's payload: the bytes json.Marshal(rec)
// writes, with Doc — already compact JSON from encodeDoc — spliced in
// rather than re-validated.
func appendWALRecord(dst []byte, rec *walRecord) ([]byte, error) {
	dst = append(dst, `{"op":`...)
	dst, _ = appendJSONString(dst, rec.Op)
	dst = append(dst, `,"ix":`...)
	dst, _ = appendJSONString(dst, rec.Ix)
	if rec.ID != "" {
		dst = append(dst, `,"id":`...)
		dst, _ = appendJSONString(dst, rec.ID)
	}
	dst = appendUintField(dst, `,"ord":`, rec.Ord)
	dst = appendUintField(dst, `,"seq":`, rec.Seq)
	if len(rec.Doc) > 0 {
		dst = append(dst, `,"doc":`...)
		dst = append(dst, rec.Doc...)
	}
	return append(dst, '}'), nil
}

// walRecordSize approximates the bytes appendWAL frames rec into: its
// names, id and document plus an allowance for the frame header, the
// field names and the numbers.
func walRecordSize(rec *walRecord) int64 {
	return int64(frame.HeaderSize + len(rec.Ix) + len(rec.ID) + len(rec.Doc) + 64)
}

// appendUintField appends an omitempty integer field.
func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// decodeWAL replays WAL bytes up to the first torn or corrupt frame,
// returning the decoded records and how many bytes formed the valid
// prefix. A short valid length is not an error — it is the expected shape
// of a crash mid-append — but the caller must treat the file as dirty and
// rewrite it before appending.
func decodeWAL(data []byte) (recs []walRecord, valid int) {
	off := 0
	for off < len(data) {
		payload, next, err := frame.Read(data, off, maxRecordLen)
		if err != nil {
			return recs, off
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Op == "" {
			return recs, off
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, off
}
