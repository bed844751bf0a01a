package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// sameCanon asserts that encodeDoc yields exactly what the JSON round
// trip (canonicalize) yields: the same bytes, the same document down to
// the sign of zero, or the same error. Each key it records is the key
// its field's canonical string parses to; on the encode-once path every
// top-level time.Time is recorded unless its zone offset has seconds.
func sameCanon(t *testing.T, name string, doc Document) {
	t.Helper()
	wantRaw, wantDoc, wantErr := canonicalize(doc)
	md, gotErr := encodeDoc(doc)
	gotRaw, gotDoc := md.raw, md.doc
	_, fast := encodeCanonical(doc)
	recorded := 0
	for k, v := range doc {
		key, ok := timeOf(md.times, k)
		if !ok {
			if tv, isTime := v.(time.Time); isTime && fast {
				if _, off := tv.Zone(); off%60 == 0 {
					t.Fatalf("%s: time field %q has no recorded key", name, k)
				}
			}
			continue
		}
		recorded++
		if want, _ := parseKey(md.doc[k]); key != want {
			t.Fatalf("%s: recorded key of %q is %+v, its string %q parses to %+v", name, k, key, md.doc[k], want)
		}
	}
	if recorded != len(md.times) {
		t.Fatalf("%s: %d keys recorded, %d of them for fields of the document", name, len(md.times), recorded)
	}
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: error = %v, want %v", name, gotErr, wantErr)
	}
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Fatalf("%s: bytes\n got %s\nwant %s", name, gotRaw, wantRaw)
	}
	if !reflect.DeepEqual(gotDoc, wantDoc) || fmt.Sprintf("%#v", gotDoc) != fmt.Sprintf("%#v", wantDoc) {
		t.Fatalf("%s: document\n got %#v\nwant %#v", name, gotDoc, wantDoc)
	}
}

type namedString string

func TestCanonicalEncoderMatchesRoundTrip(t *testing.T) {
	cest := time.FixedZone("CEST", 2*3600)
	cases := []struct {
		name string
		doc  Document
		// fast says whether the encode-once path handles the document
		// itself rather than handing it to the round trip.
		fast bool
	}{
		{"empty", Document{}, true},
		{"nil document", nil, false},
		{"archived line", Document{
			"raw": "Feb  5 17:32:18 web01 sshd[4721]: session opened", "seq": uint64(42),
			"arrival": time.Unix(1456218000, 5).UTC(), "source": "web01",
		}, true},
		{"NaN", Document{"f": math.NaN()}, false},
		{"+Inf", Document{"f": math.Inf(1)}, false},
		{"-Inf", Document{"f": math.Inf(-1)}, false},
		{"float32 NaN", Document{"f": float32(math.NaN())}, false},
		{"uint64 above 2^53", Document{"a": uint64(1<<53 + 1), "b": uint64(math.MaxUint64), "c": int64(1<<62 + 3)}, true},
		{"int extremes", Document{"a": int64(math.MinInt64), "b": math.MaxInt64, "c": int8(-128), "d": uint8(255),
			"e": int16(-3), "f": int32(7), "g": uint(9), "h": uint16(65535), "i": uint32(1 << 31)}, true},
		{"negative zero", Document{"z": math.Copysign(0, -1), "z32": float32(math.Copysign(0, -1))}, true},
		{"exponent floats", Document{"big": 1e21, "bigger": 123456789e15, "tiny": 1e-7, "denormal": 5e-324,
			"max": math.MaxFloat64, "neg": -2.5e-9, "edge": 999999999999999900000.0, "small": 0.000001}, true},
		{"float32", Document{"a": float32(0.1), "b": float32(1e-7), "c": float32(3.4e38), "d": float32(16777217)}, true},
		{"monotonic time", Document{"t": time.Now()}, true},
		{"zoned time", Document{"t": time.Date(2026, 10, 16, 8, 0, 0, 123000, cest)}, true},
		{"odd zone", Document{"t": time.Date(1900, 1, 1, 0, 0, 0, 0, time.FixedZone("LMT", 19*60+32))}, true},
		{"zero time", Document{"t": time.Time{}}, true},
		{"year 10000", Document{"t": time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}, false},
		{"negative year", Document{"t": time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)}, false},
		{"zone 24h", Document{"t": time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("X", 24*3600))}, false},
		{"invalid utf8", Document{"a": "\xff", "b": "ok\xc3(x", "c": "\xed\xa0\x80", "d": "\ufffd", "e": "\xf0\x9f\x98"}, true},
		{"html", Document{"h": "<script>a && b</script>"}, true},
		{"line separators", Document{"s": "a\u2028b\u2029c"}, true},
		{"control chars", Document{"c": "\x00\x01\b\f\n\r\t\x1f\x7f\"\\/"}, true},
		{"escaped keys", Document{"<k>": 1, "a\nb": 2, "\u2028": 3, "\u00e9": 4}, true},
		{"invalid utf8 key", Document{"\xff": 1, "\xfe": 2}, false},
		{"nested", Document{
			"m": map[string]any{"b": uint64(3), "a": []any{1, "x", nil, true, map[string]any{"t": time.Unix(0, 0).In(cest)}}},
			"d": Document{"e": false, "f": []any{}},
			"n": map[string]any(nil), "s": []any(nil), "nil": nil, "em": map[string]any{},
		}, true},
		{"nested NaN", Document{"m": map[string]any{"x": []any{math.NaN()}}}, false},
		{"unsupported slice", Document{"tags": []string{"a", "b"}}, false},
		{"unsupported named", Document{"sev": namedString("high")}, false},
		{"json number", Document{"n": json.Number("12.50")}, false},
		{"unsupported struct", Document{"s": struct{ A int }{3}}, false},
		{"channel", Document{"c": make(chan int)}, false},
	}
	for _, tc := range cases {
		sameCanon(t, tc.name, tc.doc)
		if _, ok := encodeCanonical(tc.doc); ok != tc.fast {
			t.Errorf("%s: encode-once path taken = %v, want %v", tc.name, ok, tc.fast)
		}
	}
}

// TestCanonicalEncoderSeeded compares the two paths on random documents
// built from the covered kinds and their edge values.
func TestCanonicalEncoderSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	strs := []string{"", "plain", "<>&", "\u2028\u2029", "\x00\x1f\t", "\xff\xfe", "ok\xc3(", "\u65e5\u672c\u8a9e", `q"\`}
	zones := []*time.Location{time.UTC, time.FixedZone("A", -7*3600-30*60), time.FixedZone("B", 14*3600)}
	var value func(depth int) any
	value = func(depth int) any {
		switch k := rng.Intn(14); {
		case k == 0:
			return strs[rng.Intn(len(strs))]
		case k == 1:
			return rng.Intn(2) == 0
		case k == 2:
			return math.Float64frombits(rng.Uint64()) // NaN and infinities included
		case k == 3:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		case k == 4:
			return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
		case k == 5:
			return rng.Int63() - rng.Int63()
		case k == 6:
			return rng.Uint64()
		case k == 7:
			return int(rng.Int31())
		case k == 8:
			return time.Unix(rng.Int63n(1<<34)-1<<33, rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])
		case k == 9:
			return nil
		case k == 10 && depth < 3:
			m := map[string]any{}
			for i := rng.Intn(4); i > 0; i-- {
				m[strs[rng.Intn(len(strs))]] = value(depth + 1)
			}
			return m
		case k == 11 && depth < 3:
			s := make([]any, rng.Intn(4))
			for i := range s {
				s[i] = value(depth + 1)
			}
			return s
		case k == 12:
			return uint8(rng.Intn(256))
		}
		return fmt.Sprintf("v%d", rng.Intn(100))
	}
	fast := 0
	for i := 0; i < 3000; i++ {
		doc := Document{}
		for j := rng.Intn(8); j > 0; j-- {
			doc[fmt.Sprintf("f%d", rng.Intn(10))] = value(0)
		}
		sameCanon(t, fmt.Sprintf("doc %d %#v", i, doc), doc)
		if _, ok := encodeCanonical(doc); ok {
			fast++
		}
	}
	if fast < 1000 {
		t.Fatalf("only %d of 3000 documents took the encode-once path", fast)
	}
}

// TestRecordEncodersMatchMarshal pins the hand-written WAL and segment
// record encoders to the bytes json.Marshal writes for the same record,
// so the on-disk formats are unchanged.
func TestRecordEncodersMatchMarshal(t *testing.T) {
	md, err := encodeDoc(Document{"raw": "a <b> line", "n": 3})
	if err != nil {
		t.Fatal(err)
	}
	raw, doc := md.raw, md.doc
	recs := []walRecord{
		{Op: walPut, Ix: "logs-web01", ID: "logs-web01-7", Ord: 6, Seq: 7, Doc: raw},
		{Op: walPut, Ix: "ix\xff<&>", ID: "", Doc: json.RawMessage(`{}`)},
		{Op: walDel, Ix: "logs", ID: "id\u2028"},
		{Op: walMkIx, Ix: "logs"},
		{Op: walDelIx, Ix: "logs"},
	}
	for _, rec := range recs {
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendWALRecord(nil, &rec)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("wal %s: got %s, %v\nwant %s", rec.Op, got, err, want)
		}
	}
	segs := []segDoc{
		{ID: "logs-1", Ord: 0, Doc: doc, raw: raw},
		{ID: "logs-2", Ord: 9, Doc: doc},
		{ID: "gone<>", Del: true},
		{ID: "empty", Ord: 1, Doc: Document{}, raw: []byte(`{}`)},
	}
	for _, sd := range segs {
		want, err := json.Marshal(&sd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendSegDoc(nil, &sd)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("segment %s: got %s, %v\nwant %s", sd.ID, got, err, want)
		}
	}
	if _, err := appendSegDoc(nil, &segDoc{ID: "x", Doc: Document{"f": math.NaN()}}); err == nil {
		t.Error("segment record of an unencodable document should fail")
	}
}
