package netbus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loglens/internal/frame"
	"loglens/internal/fsx"
)

// FuzzRPCDecode hammers the frame decoder with arbitrary bytes. The
// decoder must never panic, never allocate for an unannounced payload,
// and classify every rejection as one of its typed errors. A pinned
// malformed-frame corpus lives in testdata/fuzz/FuzzRPCDecode.
func FuzzRPCDecode(f *testing.F) {
	// Well-formed seeds across the op range.
	ping, _ := AppendRequestFrame(nil, OpPing, 1, &Request{})
	f.Add(ping)
	pub, _ := AppendRequestFrame(nil, OpPublish, 42, &Request{Topic: "logs", Key: "k", Value: []byte("x"), Source: "s", Seq: 7})
	f.Add(pub)
	poll, _ := AppendRequestFrame(nil, OpPoll, 99, &Request{Group: "g", Topics: []string{"logs"}, Max: 10, WaitMs: 50})
	f.Add(poll)
	two := append(append([]byte{}, ping...), pub...)
	f.Add(two)
	// Malformed seeds: wrong magic, wrong version, zero op, out-of-range
	// op, oversize length, bad CRC, truncated header and payload.
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	f.Add([]byte{'L', 'B', Version + 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'L', 'B', Version - 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'L', 'B', Version, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{'L', 'B', Version, byte(opMax), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	big := []byte{'L', 'B', Version, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	f.Add(big)
	badcrc := append([]byte{}, ping...)
	badcrc[len(badcrc)-1] ^= 0xFF
	f.Add(badcrc)
	f.Add(ping[:3])
	f.Add(ping[:headerSize-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		op, id, payload, rest, err := DecodeFrame(data)
		if err != nil {
			// Every rejection must be a typed protocol error, and the
			// input must be handed back untouched for the caller's error
			// path.
			if !errors.Is(err, ErrProtoMismatch) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrFrameTooBig) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrBadOp) {
				t.Fatalf("untyped decode error: %v", err)
			}
			if !bytes.Equal(rest, data) {
				t.Fatalf("error path consumed input")
			}
			return
		}
		// Accepted frame: every invariant the protocol promises.
		if op == 0 || op >= opMax {
			t.Fatalf("accepted op %d out of range", op)
		}
		if len(payload) > MaxPayloadBytes {
			t.Fatalf("accepted %d byte payload", len(payload))
		}
		if len(rest) != len(data)-headerSize-len(payload) {
			t.Fatalf("rest length wrong: %d", len(rest))
		}
		// Round-trip: re-framing the decoded parts must reproduce the
		// consumed bytes exactly.
		reframed, _ := sealFrame(append(make([]byte, headerSize), payload...), 0, op, id)
		if !bytes.Equal(reframed, data[:len(data)-len(rest)]) {
			t.Fatalf("re-encode mismatch")
		}
		// And the stream reader must agree with the pure decoder.
		fr := frameReader{r: bytes.NewReader(data)}
		sop, sid, spayload, serr := fr.next(nil)
		if serr != nil || sop != op || sid != id || !bytes.Equal(spayload, payload) {
			t.Fatalf("readFrame disagrees: op=%d id=%d err=%v", sop, sid, serr)
		}
	})
}

// TestDecodeFrameErrors pins each malformed shape to its exact error —
// the classification the fuzz target only checks membership of.
func TestDecodeFrameErrors(t *testing.T) {
	valid, _ := AppendRequestFrame(nil, OpPing, 1, &Request{})
	header := func(mut func(h []byte)) []byte {
		h := append([]byte{}, valid[:headerSize]...)
		mut(h)
		return h
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"one byte", []byte{'L'}, ErrTruncated},
		{"wrong magic early", []byte("HT"), ErrProtoMismatch},
		{"wrong magic full", header(func(h []byte) { h[0] = 'X' }), ErrProtoMismatch},
		{"future version", header(func(h []byte) { h[2] = Version + 1 }), ErrProtoMismatch},
		{"version-1 peer", header(func(h []byte) { h[2] = 1 }), ErrProtoMismatch},
		{"zero op", header(func(h []byte) { h[3] = 0 }), ErrBadOp},
		{"op out of range", header(func(h []byte) { h[3] = byte(opMax) }), ErrBadOp},
		{"short header", valid[:headerSize-1], ErrTruncated},
		{"short payload", header(func(h []byte) {
			binary.LittleEndian.PutUint32(h[12:16], 100)
		}), ErrTruncated},
		{"oversize", header(func(h []byte) {
			binary.LittleEndian.PutUint32(h[12:16], MaxPayloadBytes+1)
		}), ErrFrameTooBig},
		{"bad crc", func() []byte {
			d := append([]byte{}, valid...)
			d[len(d)-1] ^= 0xFF
			return d
		}(), ErrChecksum},
	}
	for _, tc := range cases {
		if _, _, _, _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Control: the valid frame decodes.
	op, id, payload, rest, err := DecodeFrame(valid)
	if err != nil || op != OpPing || id != 1 || len(rest) != 0 {
		t.Fatalf("valid frame: op=%d id=%d payload=%q rest=%d err=%v", op, id, payload, len(rest), err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(valid[16:20]) {
		t.Fatal("payload does not match its checksum")
	}
}

// FuzzPayloadDecode feeds arbitrary bytes to the payload codec as a
// Request and as a Response. The decoder must never panic, must keep
// every decoded count within what the bytes could hold, must reject with
// ErrBadPayload alone, and every payload it accepts must re-encode to
// one that decodes to an equal value.
func FuzzPayloadDecode(f *testing.F) {
	for _, req := range roundTripRequests() {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range roundTripResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	f.Add(withBits(reqAll + 1))
	f.Add(withBits(respMsgs, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0))
	f.Add(withBits(reqHeaders, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		strs := newStrTable()
		var req Request
		if err := decodeRequest(data, &req, strs); err != nil {
			if err != ErrBadPayload {
				t.Fatalf("request: untyped decode error %v", err)
			}
		} else {
			if len(req.Headers)*2 > len(data) || len(req.Topics) > len(data) || len(req.Value) > len(data) {
				t.Fatalf("request decoded more elements than %d bytes hold", len(data))
			}
			var again Request
			if err := decodeRequest(appendRequest(nil, &req), &again, nil); err != nil {
				t.Fatalf("request re-decode: %v", err)
			}
			if !reflect.DeepEqual(again, req) {
				t.Fatalf("request round trip:\n got %#v\nwant %#v", again, req)
			}
		}
		var resp Response
		if err := decodeResponse(data, &resp, strs); err != nil {
			if err != ErrBadPayload {
				t.Fatalf("response: untyped decode error %v", err)
			}
			return
		}
		if len(resp.Msgs)*minMsgBytes > len(data) || len(resp.Offsets)*2 > len(data) {
			t.Fatalf("response decoded more elements than %d bytes hold", len(data))
		}
		var again Response
		if err := decodeResponse(appendResponse(nil, &resp), &again, nil); err != nil {
			t.Fatalf("response re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("response round trip:\n got %#v\nwant %#v", again, resp)
		}
	})
}

// FuzzSpoolReplay feeds arbitrary bytes to OpenSpool as a spool file. The
// open must never panic, must replay only a CRC-valid, decodable prefix
// of the input (repairing the file down to exactly that prefix), and a
// second open of the repaired file must replay the same requests.
func FuzzSpoolReplay(f *testing.F) {
	var good []byte
	for _, req := range []*Request{
		lineRequest("logs", "web-1", 1, "GET /index.html 200"),
		lineRequest("logs", "web-1", 2, ""),
		{Topic: "logs", Key: "web-1", Headers: map[string]string{"source": "web-1", "heartbeat": "2016-02-23T09:00:00Z"}},
	} {
		good, _ = frame.Append(good, req, appendPayload)
	}
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail
	flipped := append([]byte{}, good...)
	flipped[frame.HeaderSize+2] ^= 0xFF // bad CRC in the first record
	f.Add(flipped)
	legacy, _ := frame.Append(nil, []byte(`{"source":"s","seq":1,"raw":"x"}`), appendRaw)
	f.Add(legacy) // a record of the earlier JSON spool format
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "spool.dat")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		opt := SpoolOptions{FS: fsx.OS{}, Path: path, MaxBytes: 1 << 40}
		s, err := OpenSpool(opt)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, repaired) || int64(len(repaired)) != s.Bytes() {
			t.Fatalf("repaired file is %d bytes, input %d, replayed %d bytes",
				len(repaired), len(data), s.Bytes())
		}
		// The repaired file is whole records, each CRC-valid and decodable.
		n := 0
		for off := 0; off < len(repaired); n++ {
			payload, next, err := frame.Read(repaired, off, MaxPayloadBytes)
			if err != nil {
				t.Fatalf("record %d at %d: %v", n, off, err)
			}
			var req Request
			if err := decodeRequest(payload, &req, nil); err != nil {
				t.Fatalf("record %d: %v", n, err)
			}
			if !reflect.DeepEqual(req, s.entries[n].req) {
				t.Fatalf("record %d replayed as %#v, file holds %#v", n, s.entries[n].req, req)
			}
			off = next
		}
		if n != s.Len() {
			t.Fatalf("file holds %d records, spool replayed %d", n, s.Len())
		}
		again, err := OpenSpool(opt)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if !reflect.DeepEqual(again.entries, s.entries) {
			t.Fatalf("reopen replayed %d entries, first open %d", again.Len(), s.Len())
		}
	})
}
