package netbus

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"loglens/internal/bus"
)

// roundTripRequests covers every op's request shape plus the edge values
// the codec must carry exactly: nil against empty maps, slices and
// values, zero values, negative offsets and partitions.
func roundTripRequests() map[string]Request {
	hdr := map[string]string{"source": "s1", "seq": "42", "": "empty-key"}
	return map[string]Request{
		"ping":           {},
		"publish":        {Topic: "logs", Key: "web01", Value: []byte("line"), Headers: hdr},
		"publish seq":    {Topic: "logs", Key: "web01", Value: []byte("line"), Headers: hdr, Source: "web01", Seq: 1<<64 - 1},
		"publish nil":    {Topic: "logs", Value: nil, Headers: nil},
		"publish empty":  {Topic: "logs", Value: []byte{}, Headers: map[string]string{}},
		"publish to":     {Topic: "logs", Partition: 3, Key: "k", Value: []byte{0, 1, 2, 0xFF}},
		"broadcast":      {Topic: "control", Value: []byte(`{"op":"reload"}`)},
		"create topic":   {Topic: "logs", Partitions: 4},
		"partitions":     {Topic: "logs"},
		"end offset":     {Topic: "logs", Partition: 1},
		"poll":           {Group: "g", Topics: []string{"logs", "control"}, Max: 512, Manual: true, WaitMs: 250},
		"poll try":       {Group: "g", Topics: []string{"logs"}, Max: 1},
		"poll no topics": {Group: "g", Topics: []string{}},
		"commit":         {Group: "g", Topic: "logs", Partition: 2, Offset: 1 << 40},
		"seek negative":  {Group: "g", Topics: []string{"logs"}, Topic: "logs", Partition: -1, Offset: -1},
		"seek group":     {Group: "g", Topic: "logs", Offset: -1 << 63},
		"group offsets":  {Group: "g"},
		"lag":            {Group: "g", Topics: []string{"logs"}, Manual: true},
		"read from":      {Topic: "logs", Partition: 0, Offset: 17, Max: -5},
		"resume":         {Group: "g"},
		"wait negative":  {WaitMs: -1},
		"utf8 and nul":   {Topic: "t\x00\xff", Key: "ключ", Source: "\u2028"},
	}
}

func roundTripResponses() map[string]Response {
	at := time.Unix(0, 1456218000123456789)
	return map[string]Response{
		"ok":            {},
		"error":         {Err: "bus: unknown topic \"logs\""},
		"publish":       {Partition: 3, Offset: 99},
		"negative":      {Partition: -2, Offset: -7, Count: -1},
		"dup":           {Dup: true},
		"count":         {Count: 4},
		"offsets":       {Offsets: map[string]int64{"logs/0": 5, "logs/1": -1, "": 0}},
		"offsets empty": {Offsets: map[string]int64{}},
		"msgs empty":    {Msgs: []bus.Message{}},
		"msgs": {Msgs: []bus.Message{
			{Topic: "logs", Partition: 1, Offset: 7, Key: "web01", Value: []byte("a line"),
				Headers: map[string]string{"source": "web01", "seq": "8"}, Time: at},
			{Topic: "logs", Partition: 1, Offset: 8, Key: "web01", Value: nil, Headers: nil, Time: time.Unix(0, 0)},
			{Topic: "logs", Partition: 0, Offset: -1, Value: []byte{}, Headers: map[string]string{}, Time: time.Unix(0, -1)},
		}},
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for name, req := range roundTripRequests() {
		var got Request
		if err := decodeRequest(appendRequest(nil, &req), &got, nil); err != nil {
			t.Fatalf("request %s: %v", name, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("request %s:\n got %#v\nwant %#v", name, got, req)
		}
	}
	for name, resp := range roundTripResponses() {
		var got Response
		if err := decodeResponse(appendResponse(nil, &resp), &got, nil); err != nil {
			t.Fatalf("response %s: %v", name, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("response %s:\n got %#v\nwant %#v", name, got, resp)
		}
	}
}

// TestFrameRoundTrip sends each shape through the full frame path.
func TestFrameRoundTrip(t *testing.T) {
	for name, req := range roundTripRequests() {
		frame, err := AppendRequestFrame([]byte("prefix"), OpPublish, 9, &req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		op, id, payload, rest, err := DecodeFrame(frame[len("prefix"):])
		if err != nil || op != OpPublish || id != 9 || len(rest) != 0 {
			t.Fatalf("%s: op=%d id=%d rest=%d err=%v", name, op, id, len(rest), err)
		}
		var got Request
		if err := decodeRequest(payload, &got, nil); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: got %#v, %v", name, got, err)
		}
	}
}

// TestMaxPayloadValue: a value of the maximum payload size round-trips
// through the codec, but its frame (value plus fields) is refused.
func TestMaxPayloadValue(t *testing.T) {
	req := Request{Topic: "logs", Value: make([]byte, MaxPayloadBytes)}
	req.Value[0], req.Value[len(req.Value)-1] = 1, 2
	var got Request
	if err := decodeRequest(appendRequest(nil, &req), &got, nil); err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("max-size value did not round-trip: %v", err)
	}
	frame, err := AppendRequestFrame([]byte("keep"), OpPublish, 1, &req)
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize frame err = %v, want ErrFrameTooBig", err)
	}
	if string(frame) != "keep" {
		t.Fatalf("failed encode left %d bytes behind", len(frame))
	}
	resp := Response{Msgs: []bus.Message{{Topic: "logs", Value: req.Value, Time: time.Unix(0, 0)}}}
	if _, err := AppendResponseFrame(nil, OpPoll, 1, &resp); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize response err = %v, want ErrFrameTooBig", err)
	}
}

// withBits prefixes rest with a presence bitmap.
func withBits(bits uint64, rest ...byte) []byte {
	return append(binary.AppendUvarint(nil, bits), rest...)
}

// TestPayloadDecodeRejects pins malformed shapes to ErrBadPayload.
func TestPayloadDecodeRejects(t *testing.T) {
	valid := appendRequest(nil, &Request{Topic: "logs", Headers: map[string]string{"a": "b"}, Seq: 3})
	cases := map[string][]byte{
		"empty":            nil,
		"unknown bit":      withBits(reqAll + 1),
		"truncated varint": {0xFF},
		"short string":     withBits(reqTopic, 10, 'a'),
		"huge string":      withBits(reqTopic, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),
		"huge map":         withBits(reqHeaders, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0),
		"huge list":        withBits(reqTopics, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),
		"int overflow":     withBits(reqMax, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
		"trailing byte":    append(append([]byte{}, valid...), 0),
		"truncated":        valid[:len(valid)-1],
	}
	for name, p := range cases {
		var req Request
		if err := decodeRequest(p, &req, nil); err != ErrBadPayload {
			t.Errorf("request %s: err = %v, want ErrBadPayload", name, err)
		}
		if !reflect.DeepEqual(req, Request{}) {
			t.Errorf("request %s: rejected decode left %#v", name, req)
		}
	}
	respCases := map[string][]byte{
		"unknown bit":     withBits(respAll + 1),
		"huge msgs":       withBits(respMsgs, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),
		"huge offsets":    withBits(respOffsets, 0xFF, 0xFF, 0x03, 0, 0),
		"huge msg header": withBits(respMsgs, 1, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03, 0),
		"huge msg value":  withBits(respMsgs, 1, 0, 0, 0, 0, 0xFF, 0xFF, 0x03, 0, 0),
	}
	for name, p := range respCases {
		var resp Response
		if err := decodeResponse(p, &resp, nil); err != ErrBadPayload {
			t.Errorf("response %s: err = %v, want ErrBadPayload", name, err)
		}
	}
}

// TestPayloadDecodeAllocBound: counts and lengths are checked against
// the bytes present before anything is allocated, so a tiny payload
// announcing millions of elements costs next to nothing.
func TestPayloadDecodeAllocBound(t *testing.T) {
	tiny := [][]byte{
		withBits(reqHeaders, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0),
		withBits(reqTopics, 0xFF, 0xFF, 0xFF, 0x7F),
		withBits(reqValue, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	tinyResp := [][]byte{
		withBits(respMsgs, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0),
		withBits(respOffsets, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		for _, p := range tiny {
			var req Request
			decodeRequest(p, &req, nil)
		}
		for _, p := range tinyResp {
			var resp Response
			decodeResponse(p, &resp, nil)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding 500 tiny payloads allocated %d bytes", grew)
	}
}

// TestStrTableBounded: interning hands back equal strings, shares
// repeats, and starts over instead of growing past maxInterned.
func TestStrTableBounded(t *testing.T) {
	strs := newStrTable()
	first := strs.intern([]byte("logs"))
	if again := strs.intern([]byte("logs")); again != first || unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("repeated string was not shared")
	}
	for i := 0; i < 3*maxInterned; i++ {
		b := binary.AppendUvarint([]byte("seq-"), uint64(i))
		if got := strs.intern(b); got != string(b) {
			t.Fatalf("intern(%q) = %q", b, got)
		}
		if len(strs.m) > maxInterned {
			t.Fatalf("table grew to %d entries", len(strs.m))
		}
	}
}
