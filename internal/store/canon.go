// Encode-once documents: the engine needs every document twice
// over — as JSON bytes for the WAL and the segment record, and as the
// canonical Document queries read (float64 numbers, RFC 3339 strings,
// nested map[string]any/[]any), which is exactly what json.Unmarshal
// returns for those bytes. The canonical encoder produces both in one
// walk, writing the bytes json.Marshal would write, so a document costs
// one encoding instead of a marshal, an unmarshal and two re-marshals.
//
// It covers the value kinds the store documents: string, bool, the int,
// uint and float kinds, time.Time, nil, and nested map[string]any /
// Document / []any. Any other type — and any value json.Marshal refuses
// or would change (NaN, ±Inf, years outside 0–9999, map keys that are
// not valid UTF-8) — sends the whole document down the JSON round trip
// (canonicalize), so results and errors match it exactly.
package store

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// encodeDoc returns doc's JSON bytes and canonical form as a memtable
// document, with the key of each top-level time.Time field recorded.
func encodeDoc(doc Document) (memDoc, error) {
	if md, ok := encodeCanonical(doc); ok {
		return md, nil
	}
	raw, cdoc, err := canonicalize(doc)
	return memDoc{doc: cdoc, raw: raw}, err
}

// canonicalize JSON round-trips a document so memtable and segment copies
// have identical dynamic types (float64 numbers, RFC3339 strings) — the
// property the equivalence tests lean on. It is the fallback for
// documents the canonical encoder does not cover.
func canonicalize(doc Document) (json.RawMessage, Document, error) {
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil, nil, fmt.Errorf("store: unencodable document: %w", err)
	}
	var cdoc Document
	if err := json.Unmarshal(raw, &cdoc); err != nil {
		return nil, nil, fmt.Errorf("store: canonicalize: %w", err)
	}
	return raw, cdoc, nil
}

// canonBufs recycles encode scratch; the bytes a document keeps are an
// exact-size copy.
var canonBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// encodeCanonical is the single-walk encoder; ok is false when doc needs
// the JSON round trip instead.
func encodeCanonical(doc Document) (md memDoc, ok bool) {
	if doc == nil {
		return md, false // json.Marshal writes null; leave it to the round trip
	}
	bp := canonBufs.Get().(*[]byte)
	buf, cdoc, ok := appendCanonMap((*bp)[:0], doc, &md.times)
	if ok {
		md.raw = append(json.RawMessage(nil), buf...)
		md.doc = cdoc
	}
	if cap(buf) <= 64<<10 {
		*bp = buf
		canonBufs.Put(bp)
	}
	return md, ok
}

// encodeOwned is encodeDoc for a document the store keeps as given
// (PutBatch): when every value is already canonical, doc is its own
// canonical form and only its bytes are new. A document that cannot be
// encoded comes back as given, with the error.
func encodeOwned(doc Document) (memDoc, error) {
	bp := canonBufs.Get().(*[]byte)
	buf, ok := appendFlatDoc((*bp)[:0], doc)
	var raw json.RawMessage
	if ok {
		raw = append(json.RawMessage(nil), buf...)
	}
	if cap(buf) <= 64<<10 {
		*bp = buf
		canonBufs.Put(bp)
	}
	if ok {
		return memDoc{doc: doc, raw: raw}, nil
	}
	md, err := encodeDoc(doc)
	if err != nil {
		md.doc = doc
	}
	return md, err
}

// appendFlatDoc appends doc's JSON encoding when every value is already
// what json.Unmarshal would read back from it — a valid UTF-8 string, a
// finite float64, a bool or nil — so doc is its own canonical form. ok
// is false for any other document.
func appendFlatDoc(dst []byte, doc Document) ([]byte, bool) {
	if doc == nil {
		return dst, false
	}
	var stack [16]string
	keys := stack[:0]
	for k := range doc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		valid := true
		if dst, valid = appendJSONString(dst, k); !valid {
			return dst, false
		}
		dst = append(dst, ':')
		switch x := doc[k].(type) {
		case nil:
			dst = append(dst, "null"...)
		case string:
			dst, valid = appendJSONString(dst, x)
		case bool:
			dst = strconv.AppendBool(dst, x)
		case float64:
			valid = !math.IsNaN(x) && !math.IsInf(x, 0)
			dst = appendJSONFloat(dst, x, 64)
		default:
			valid = false
		}
		if !valid {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// appendCanonMap encodes m as a JSON object with sorted keys, returning
// the canonical map. For the top-level map, times is non-nil and gets
// the key of each field m holds as a time.Time.
func appendCanonMap(dst []byte, m map[string]any, times *[]timeField) ([]byte, map[string]any, bool) {
	var stack [16]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make(map[string]any, len(m))
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		var valid, ok bool
		if dst, valid = appendJSONString(dst, k); !valid {
			return dst, nil, false
		}
		dst = append(dst, ':')
		var v any
		if dst, v, ok = appendCanonValue(dst, m[k]); !ok {
			return dst, nil, false
		}
		if t, isTime := m[k].(time.Time); isTime && times != nil {
			*times = recordTime(*times, k, t)
		}
		out[k] = v
	}
	return append(dst, '}'), out, true
}

// appendCanonValue encodes one value, returning its canonical form.
func appendCanonValue(dst []byte, v any) ([]byte, any, bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil, true
	case string:
		var valid bool
		dst, valid = appendJSONString(dst, x)
		if !valid {
			return dst, toValidUTF8(x), true
		}
		return dst, x, true
	case bool:
		return strconv.AppendBool(dst, x), x, true
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return dst, nil, false
		}
		return appendJSONFloat(dst, x, 64), x, true
	case float32:
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, nil, false
		}
		start := len(dst)
		dst = appendJSONFloat(dst, f, 32)
		// The shortest float32 form read back as a float64, as
		// json.Unmarshal does — not float64(x).
		back, err := strconv.ParseFloat(string(dst[start:]), 64)
		return dst, back, err == nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), float64(x), true
	case int8:
		return strconv.AppendInt(dst, int64(x), 10), float64(x), true
	case int16:
		return strconv.AppendInt(dst, int64(x), 10), float64(x), true
	case int32:
		return strconv.AppendInt(dst, int64(x), 10), float64(x), true
	case int64:
		return strconv.AppendInt(dst, x, 10), float64(x), true
	case uint:
		return strconv.AppendUint(dst, uint64(x), 10), float64(x), true
	case uint8:
		return strconv.AppendUint(dst, uint64(x), 10), float64(x), true
	case uint16:
		return strconv.AppendUint(dst, uint64(x), 10), float64(x), true
	case uint32:
		return strconv.AppendUint(dst, uint64(x), 10), float64(x), true
	case uint64:
		return strconv.AppendUint(dst, x, 10), float64(x), true
	case time.Time:
		return appendJSONTime(dst, x)
	case map[string]any:
		if x == nil {
			return append(dst, "null"...), nil, true
		}
		return appendCanonMap(dst, x, nil)
	case Document:
		if x == nil {
			return append(dst, "null"...), nil, true
		}
		return appendCanonMap(dst, x, nil)
	case []any:
		if x == nil {
			return append(dst, "null"...), nil, true
		}
		out := make([]any, len(x))
		dst = append(dst, '[')
		for i, e := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, out[i], ok = appendCanonValue(dst, e); !ok {
				return dst, nil, false
			}
		}
		return append(dst, ']'), out, true
	}
	return dst, nil, false
}

// appendJSONTime writes t as time.Time.MarshalJSON does; its canonical
// form is the RFC 3339 string. Values MarshalJSON refuses (a year that is
// not four digits, a zone offset of 24 hours or more) are not ok.
func appendJSONTime(dst []byte, t time.Time) ([]byte, any, bool) {
	dst = append(dst, '"')
	start := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	s := dst[start:]
	if len(s) < len("2006-01-02T15:04:05Z") || s[4] != '-' {
		return dst, nil, false
	}
	if s[len(s)-1] != 'Z' {
		sign := s[len(s)-len("Z07:00")]
		hours := 10*int(s[len(s)-5]-'0') + int(s[len(s)-4]-'0')
		if '0' <= sign && sign <= '9' || hours >= 24 {
			return dst, nil, false
		}
	}
	str := string(s)
	return append(dst, '"'), str, true
}

// appendJSONFloat writes f as encoding/json does: shortest form, 'e'
// notation outside [1e-6, 1e21), exponent without a leading zero.
func appendJSONFloat(dst []byte, f float64, bits int) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString writes s as a JSON string exactly as json.Marshal
// does: HTML-safe escapes for <, > and &, \u escapes for other control
// characters and U+2028/U+2029, and \ufffd for each byte that is not
// valid UTF-8. It reports whether s was valid UTF-8.
func appendJSONString(dst []byte, s string) ([]byte, bool) {
	valid := true
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			valid = false
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"'), valid
}

// toValidUTF8 replaces each invalid byte of s with U+FFFD, as decoding
// appendJSONString's output does.
func toValidUTF8(s string) string {
	out := make([]byte, 0, len(s)+8)
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			out = utf8.AppendRune(out, utf8.RuneError)
		} else {
			out = append(out, s[i:i+size]...)
		}
		i += size
	}
	return string(out)
}
