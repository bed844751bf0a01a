// Segment files: the immutable, sorted building block of the persistent
// store. A segment is written once (atomically, via fsx.WriteFileAtomic),
// then only ever read or dropped — compaction and retention replace whole
// segments in the manifest instead of mutating them, which is what makes
// checkpoints incremental: a checkpoint references segment files, it never
// re-copies documents.
//
// On-disk layout (all integers little-endian):
//
//	[8]  magic "LLSEGv1\n"
//	[..] document records, each [4 len][4 crc32(payload)][payload JSON]
//	[..] footer JSON (segFooter)
//	[4]  footer length
//	[4]  crc32 of footer JSON
//	[8]  magic again (trailer sentinel)
//
// The footer carries the per-document directory (id → offset/length/ord)
// plus sparse per-field statistics, so opening a segment reads only the
// trailer and queries can skip segments that provably cannot match. Every
// document fetch re-verifies the record checksum, so a flipped bit on disk
// surfaces as a detected read error, never as silent corruption or a panic.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
	"time"

	"loglens/internal/fsx"
)

const segMagic = "LLSEGv1\n"

// maxRecordLen bounds a single framed record; anything larger is treated
// as corruption (the fuzz targets feed arbitrary lengths here).
const maxRecordLen = 1 << 28

// maxStatVals caps the distinct-value set tracked per field; past it the
// stat is marked overflowed and term-skipping falls back to ranges.
const maxStatVals = 16

// maxStatFields caps how many fields a segment footer indexes; past it
// the footer is marked overflowed and missing-field skips are disabled.
const maxStatFields = 32

var (
	errBadMagic   = errors.New("store: segment: bad magic")
	errTruncated  = errors.New("store: segment: truncated")
	errBadCheck   = errors.New("store: segment: checksum mismatch")
	errBadRecord  = errors.New("store: segment: malformed record")
	errBadFooter  = errors.New("store: segment: malformed footer")
	errOutOfRange = errors.New("store: segment: directory entry out of range")
)

// appendRecord frames the payload enc appends onto dst as
// [len][crc][payload], encoding it in place behind a reserved header. The
// frame is shared by segment records and WAL records. On error dst comes
// back as it was.
func appendRecord[T any](dst []byte, v T, enc func([]byte, T) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	dst, err := enc(append(dst, make([]byte, 8)...), v)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// readRecord decodes one frame at off, returning the payload and the
// offset of the next frame. Any framing or checksum violation is an
// error; callers decide whether that is corruption (segments) or a torn
// tail (WAL replay).
func readRecord(data []byte, off int) (payload []byte, next int, err error) {
	if off < 0 || off+8 > len(data) {
		return nil, 0, errTruncated
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > maxRecordLen || off+8+int(n) > len(data) {
		return nil, 0, errTruncated
	}
	payload = data[off+8 : off+8+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, errBadCheck
	}
	return payload, off + 8 + int(n), nil
}

// segDoc is one record payload: a document pinned to its id and scan
// order, or a tombstone (Del) that erases the id from older segments when
// the directory is rebuilt at open.
type segDoc struct {
	ID  string   `json:"id"`
	Ord uint64   `json:"ord,omitempty"`
	Del bool     `json:"del,omitempty"`
	Doc Document `json:"doc,omitempty"`
	// raw is Doc's JSON encoding when the memtable kept it; the record
	// embeds it instead of marshalling Doc again.
	raw []byte
}

// appendSegDoc appends sd's record payload: the bytes json.Marshal(sd)
// writes, with the document's kept encoding spliced in.
func appendSegDoc(dst []byte, sd *segDoc) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst, _ = appendJSONString(dst, sd.ID)
	if sd.Ord != 0 {
		dst = append(dst, `,"ord":`...)
		dst = strconv.AppendUint(dst, sd.Ord, 10)
	}
	if sd.Del {
		dst = append(dst, `,"del":true`...)
	}
	if len(sd.Doc) > 0 {
		raw := sd.raw
		if raw == nil {
			var err error
			if raw, err = json.Marshal(sd.Doc); err != nil {
				return dst, fmt.Errorf("store: segment: encode doc %q: %w", sd.ID, err)
			}
		}
		dst = append(dst, `,"doc":`...)
		dst = append(dst, raw...)
	}
	return append(dst, '}'), nil
}

// segEntry is one footer directory row: where the record for ID lives.
// Off/Len frame the whole record (header included) so a fetch can verify
// the checksum without touching neighboring bytes.
type segEntry struct {
	ID  string `json:"id"`
	Ord uint64 `json:"ord,omitempty"`
	Off int64  `json:"off"`
	Len int32  `json:"len"`
	Del bool   `json:"del,omitempty"`
}

// fieldStat is the sparse per-field index in a segment footer: enough to
// prove "no document in this segment can match", never to prove a match.
type fieldStat struct {
	// Count is how many live documents carry the field.
	Count int `json:"count"`
	// NumCount / TimeCount say how many of those values are numeric or
	// time-like; the min/max bounds cover exactly those values.
	NumCount  int       `json:"num_count,omitempty"`
	NumMin    float64   `json:"num_min,omitempty"`
	NumMax    float64   `json:"num_max,omitempty"`
	TimeCount int       `json:"time_count,omitempty"`
	TimeMin   time.Time `json:"time_min,omitempty"`
	TimeMax   time.Time `json:"time_max,omitempty"`
	// Vals is the complete distinct set of fmt.Sprint forms, unless Over
	// reports the set overflowed maxStatVals and is absent.
	Vals []string `json:"vals,omitempty"`
	Over bool     `json:"over,omitempty"`
}

// segFooter is the segment trailer: directory plus field statistics.
type segFooter struct {
	// Count is the number of live (non-tombstone) entries.
	Count   int        `json:"count"`
	Entries []segEntry `json:"entries"`
	// Fields indexes live documents' fields; FieldsOver reports the map
	// was capped and may be missing fields entirely.
	Fields     map[string]*fieldStat `json:"fields,omitempty"`
	FieldsOver bool                  `json:"fields_over,omitempty"`
	MinOrd     uint64                `json:"min_ord,omitempty"`
	MaxOrd     uint64                `json:"max_ord,omitempty"`
}

// segment is an open sealed segment: immutable bytes on disk plus the
// decoded footer and a live-document count maintained by the engine as
// newer writes shadow this segment's entries.
type segment struct {
	file   string // path relative to the data dir, e.g. "seg/000001-logs.seg"
	bytes  int64
	crc    uint32 // checksum of the full file, recorded in the manifest
	bucket time.Time
	footer *segFooter
	// live is how many directory refs still point here; maintained under
	// the owning index's lock. Zero-live tombstone-free segments are
	// dropped at the next manifest commit.
	live  int
	tombs int // tombstone entries; they pin the segment until compaction

	openMu sync.Mutex
	fh     fsx.File
}

// encodeSegment serializes docs (already in scan order, tombstones first)
// into the segment format, returning the bytes and the footer it embedded.
func encodeSegment(docs []segDoc) ([]byte, *segFooter, error) {
	buf := make([]byte, 0, 1024)
	buf = append(buf, segMagic...)
	ft := &segFooter{Fields: make(map[string]*fieldStat)}
	vals := make(map[string]map[string]bool)
	for i := range docs {
		sd := &docs[i]
		off := int64(len(buf))
		var err error
		if buf, err = appendRecord(buf, sd, appendSegDoc); err != nil {
			return nil, nil, err
		}
		ft.Entries = append(ft.Entries, segEntry{
			ID: sd.ID, Ord: sd.Ord, Off: off, Len: int32(int64(len(buf)) - off), Del: sd.Del,
		})
		if sd.Del {
			continue
		}
		ft.Count++
		if ft.Count == 1 || sd.Ord < ft.MinOrd {
			ft.MinOrd = sd.Ord
		}
		if sd.Ord > ft.MaxOrd {
			ft.MaxOrd = sd.Ord
		}
		statFields(ft, vals, sd.Doc)
	}
	if len(ft.Fields) == 0 {
		ft.Fields = nil
	}
	footerJSON, err := json.Marshal(ft)
	if err != nil {
		return nil, nil, fmt.Errorf("store: segment: encode footer: %w", err)
	}
	buf = append(buf, footerJSON...)
	var tail [16]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(footerJSON)))
	binary.LittleEndian.PutUint32(tail[4:8], crc32.ChecksumIEEE(footerJSON))
	copy(tail[8:16], segMagic)
	buf = append(buf, tail[:]...)
	return buf, ft, nil
}

// statFields folds one live document into the footer's field statistics.
func statFields(ft *segFooter, vals map[string]map[string]bool, doc Document) {
	for field, v := range doc {
		st, ok := ft.Fields[field]
		if !ok {
			if len(ft.Fields) >= maxStatFields {
				ft.FieldsOver = true
				continue
			}
			st = &fieldStat{}
			ft.Fields[field] = st
			vals[field] = make(map[string]bool)
		}
		st.Count++
		if n, ok := asFloat(v); ok {
			if st.NumCount == 0 || n < st.NumMin {
				st.NumMin = n
			}
			if st.NumCount == 0 || n > st.NumMax {
				st.NumMax = n
			}
			st.NumCount++
		}
		if t, ok := asTime(v); ok {
			if st.TimeCount == 0 || t.Before(st.TimeMin) {
				st.TimeMin = t
			}
			if st.TimeCount == 0 || t.After(st.TimeMax) {
				st.TimeMax = t
			}
			st.TimeCount++
		}
		if !st.Over {
			s := sprint(v)
			if !vals[field][s] {
				if len(vals[field]) >= maxStatVals {
					st.Over = true
					st.Vals = nil
				} else {
					vals[field][s] = true
					st.Vals = append(st.Vals, s)
				}
			}
		}
	}
}

// decodeFooter validates the trailer and footer of a segment given the
// full file length and the tail bytes (at least the last 16, ideally
// more). It returns the footer and the offset where the footer JSON
// starts. Corruption is an error, never a panic.
func decodeFooter(size int64, tail []byte, tailOff int64) (*segFooter, int64, error) {
	if size < int64(len(segMagic))+16 {
		return nil, 0, errTruncated
	}
	if tailOff+int64(len(tail)) != size || len(tail) < 16 {
		return nil, 0, errTruncated
	}
	t := tail[len(tail)-16:]
	if string(t[8:16]) != segMagic {
		return nil, 0, errBadMagic
	}
	ftLen := int64(binary.LittleEndian.Uint32(t[0:4]))
	ftCRC := binary.LittleEndian.Uint32(t[4:8])
	ftOff := size - 16 - ftLen
	if ftLen > maxRecordLen || ftOff < int64(len(segMagic)) {
		return nil, 0, errTruncated
	}
	if ftOff < tailOff {
		// Caller's tail window doesn't cover the footer; report where it
		// starts so the caller can re-read.
		return nil, ftOff, errShortTail
	}
	footerJSON := tail[ftOff-tailOff : int64(len(tail))-16]
	if crc32.ChecksumIEEE(footerJSON) != ftCRC {
		return nil, 0, errBadCheck
	}
	var ft segFooter
	if err := json.Unmarshal(footerJSON, &ft); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errBadFooter, err)
	}
	if ft.Count < 0 || len(ft.Entries) > maxRecordLen {
		return nil, 0, errBadFooter
	}
	for i := range ft.Entries {
		e := &ft.Entries[i]
		if e.Off < int64(len(segMagic)) || e.Len < 8 || e.Off+int64(e.Len) > ftOff {
			return nil, 0, errOutOfRange
		}
	}
	return &ft, ftOff, nil
}

// errShortTail signals decodeFooter was handed too small a tail window.
var errShortTail = errors.New("store: segment: tail window too small")

// decodeSegment fully validates segment bytes: magic, trailer, footer
// checksum, every directory entry in bounds, every record checksum, every
// payload well-formed and consistent with its entry. This is the fuzz
// surface and the deep-verify path; the runtime open path reads only the
// trailer (openSegment) and verifies records lazily on fetch.
func decodeSegment(data []byte) (*segFooter, []segDoc, error) {
	if len(data) < len(segMagic)+16 {
		return nil, nil, errTruncated
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, nil, errBadMagic
	}
	ft, _, err := decodeFooter(int64(len(data)), data, 0)
	if err != nil {
		return nil, nil, err
	}
	docs := make([]segDoc, 0, len(ft.Entries))
	for i := range ft.Entries {
		e := &ft.Entries[i]
		payload, _, err := readRecord(data, int(e.Off))
		if err != nil {
			return nil, nil, err
		}
		if int64(len(payload))+8 != int64(e.Len) {
			return nil, nil, errBadRecord
		}
		var sd segDoc
		if err := json.Unmarshal(payload, &sd); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", errBadRecord, err)
		}
		if sd.ID != e.ID || sd.Ord != e.Ord || sd.Del != e.Del {
			return nil, nil, errBadRecord
		}
		docs = append(docs, sd)
	}
	return ft, docs, nil
}

// fetchDoc reads and verifies one record from the open segment file.
func (sg *segment) fetchDoc(e ref) (Document, error) {
	buf := make([]byte, e.length)
	if _, err := sg.fh.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("store: segment %s: read: %w", sg.file, err)
	}
	payload, _, err := readRecord(buf, 0)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", sg.file, err)
	}
	var sd segDoc
	if err := json.Unmarshal(payload, &sd); err != nil {
		return nil, fmt.Errorf("store: segment %s: %w: %v", sg.file, errBadRecord, err)
	}
	return sd.Doc, nil
}

func (sg *segment) close() {
	sg.openMu.Lock()
	if sg.fh != nil {
		sg.fh.Close()
		sg.fh = nil
	}
	sg.openMu.Unlock()
}

// skippable reports whether no document in the segment can possibly match
// q — the only claim the sparse footer stats are allowed to make. Every
// branch errs toward "might match": value comparison in queries falls
// back to string forms across mixed types, so skipping is only safe when
// the numeric range, the time range, and the complete distinct-value set
// all rule a match out.
func (ft *segFooter) skippable(q Query) bool {
	if ft.Count == 0 {
		// Tombstone-only segments hold nothing searchable.
		return true
	}
	for field, want := range q.Term {
		if fmt.Sprint(want) == "<nil>" {
			// A nil-printing term matches documents lacking the field;
			// the stats cannot rule that out.
			return false
		}
		st, ok := ft.Fields[field]
		if !ok {
			if ft.FieldsOver {
				continue // field may exist but was uncounted; no claim
			}
			return true // no live document carries the field
		}
		if !termPossible(st, want) {
			return true
		}
	}
	if q.RangeField != "" {
		st, ok := ft.Fields[q.RangeField]
		if !ok {
			if !ft.FieldsOver {
				return true // range queries require the field present
			}
		} else if !rangePossible(st, q.RangeMin, q.RangeMax) {
			return true
		}
	}
	return false
}

// termPossible reports whether some value summarized by st could compare
// equal to want under compareValues (time, then numeric, then string
// form).
func termPossible(st *fieldStat, want any) bool {
	if st.Over {
		return true // distinct set incomplete: string-path equality unknown
	}
	ws := fmt.Sprint(want)
	for _, v := range st.Vals {
		if v == ws {
			return true // exact string-form collision
		}
	}
	if wt, ok := asTime(want); ok {
		if st.TimeCount > 0 && !wt.Before(st.TimeMin) && !wt.After(st.TimeMax) {
			return true // a chronologically equal value may exist
		}
	}
	if wf, ok := asFloat(want); ok {
		if st.NumCount > 0 && wf >= st.NumMin && wf <= st.NumMax {
			return true // a numerically equal value may exist
		}
	}
	return false
}

// rangePossible reports whether some value summarized by st could fall in
// [lo, hi]. Only type-pure cases make a claim: mixed-type fields compare
// by string form, which min/max bounds cannot reason about.
func rangePossible(st *fieldStat, lo, hi any) bool {
	if st.Count == 0 {
		return false
	}
	if st.NumCount == st.Count {
		lf, lok := asFloat(lo)
		hf, hok := asFloat(hi)
		if (lo == nil || lok) && (hi == nil || hok) {
			if lo != nil && st.NumMax < lf {
				return false
			}
			if hi != nil && st.NumMin > hf {
				return false
			}
			return true
		}
	}
	if st.TimeCount == st.Count {
		lt, lok := asTime(lo)
		ht, hok := asTime(hi)
		if (lo == nil || lok) && (hi == nil || hok) {
			if lo != nil && st.TimeMax.Before(lt) {
				return false
			}
			if hi != nil && st.TimeMin.After(ht) {
				return false
			}
			return true
		}
	}
	return true
}
