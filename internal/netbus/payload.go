package netbus

import (
	"encoding/binary"
	"errors"
	"time"

	"loglens/internal/bus"
)

// Payload codec (protocol version 2). Every Request and Response payload
// is a field-presence bitmap followed by the present fields in bit order:
//
//	uvarint  presence bitmap (bit i set = field i follows)
//	string   uvarint length + bytes
//	int      zigzag varint
//	uint     uvarint
//	bool     no body: the presence bit is the value
//	bytes    uvarint length + bytes (present iff non-nil)
//	map      uvarint count + count × (string key, value)
//	list     uvarint count + count × element
//
// A poll message is topic (string), partition (int), offset (int), key
// (string), value (uvarint length+1, 0 = nil, then bytes), headers
// (uvarint count+1, 0 = nil, then string pairs) and time (int, Unix
// nanoseconds). Strings, ints and bools are present iff non-zero; maps,
// lists and byte slices iff non-nil, so nil and empty survive the trip.
//
// The decoder bounds every length and count by the bytes left in the
// payload before allocating, rejects unknown presence bits and trailing
// bytes, and reports every malformed input as ErrBadPayload.

// ErrBadPayload reports a payload the codec cannot decode.
var ErrBadPayload = errors.New("netbus: malformed payload")

// Request presence bits.
const (
	reqTopic = 1 << iota
	reqPartition
	reqPartitions
	reqKey
	reqValue
	reqHeaders
	reqGroup
	reqTopics
	reqOffset
	reqMax
	reqManual
	reqWaitMs
	reqSource
	reqSeq
	reqAll = reqSeq<<1 - 1
)

// Response presence bits.
const (
	respErr = 1 << iota
	respPartition
	respOffset
	respCount
	respOffsets
	respMsgs
	respDup
	respAll = respDup<<1 - 1
)

// minMsgBytes is the smallest encoding of one poll message: seven
// one-byte fields.
const minMsgBytes = 7

// appendRequest appends the encoding of req to dst.
func appendRequest(dst []byte, req *Request) []byte {
	bits := bit(req.Topic != "", reqTopic) |
		bit(req.Partition != 0, reqPartition) |
		bit(req.Partitions != 0, reqPartitions) |
		bit(req.Key != "", reqKey) |
		bit(req.Value != nil, reqValue) |
		bit(req.Headers != nil, reqHeaders) |
		bit(req.Group != "", reqGroup) |
		bit(req.Topics != nil, reqTopics) |
		bit(req.Offset != 0, reqOffset) |
		bit(req.Max != 0, reqMax) |
		bit(req.Manual, reqManual) |
		bit(req.WaitMs != 0, reqWaitMs) |
		bit(req.Source != "", reqSource) |
		bit(req.Seq != 0, reqSeq)
	dst = binary.AppendUvarint(dst, bits)
	if bits&reqTopic != 0 {
		dst = appendString(dst, req.Topic)
	}
	if bits&reqPartition != 0 {
		dst = binary.AppendVarint(dst, int64(req.Partition))
	}
	if bits&reqPartitions != 0 {
		dst = binary.AppendVarint(dst, int64(req.Partitions))
	}
	if bits&reqKey != 0 {
		dst = appendString(dst, req.Key)
	}
	if bits&reqValue != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Value)))
		dst = append(dst, req.Value...)
	}
	if bits&reqHeaders != 0 {
		dst = appendHeaders(dst, req.Headers)
	}
	if bits&reqGroup != 0 {
		dst = appendString(dst, req.Group)
	}
	if bits&reqTopics != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Topics)))
		for _, t := range req.Topics {
			dst = appendString(dst, t)
		}
	}
	if bits&reqOffset != 0 {
		dst = binary.AppendVarint(dst, req.Offset)
	}
	if bits&reqMax != 0 {
		dst = binary.AppendVarint(dst, int64(req.Max))
	}
	if bits&reqWaitMs != 0 {
		dst = binary.AppendVarint(dst, req.WaitMs)
	}
	if bits&reqSource != 0 {
		dst = appendString(dst, req.Source)
	}
	if bits&reqSeq != 0 {
		dst = binary.AppendUvarint(dst, req.Seq)
	}
	return dst
}

// appendResponse appends the encoding of resp to dst.
func appendResponse(dst []byte, resp *Response) []byte {
	bits := bit(resp.Err != "", respErr) |
		bit(resp.Partition != 0, respPartition) |
		bit(resp.Offset != 0, respOffset) |
		bit(resp.Count != 0, respCount) |
		bit(resp.Offsets != nil, respOffsets) |
		bit(resp.Msgs != nil, respMsgs) |
		bit(resp.Dup, respDup)
	dst = binary.AppendUvarint(dst, bits)
	if bits&respErr != 0 {
		dst = appendString(dst, resp.Err)
	}
	if bits&respPartition != 0 {
		dst = binary.AppendVarint(dst, int64(resp.Partition))
	}
	if bits&respOffset != 0 {
		dst = binary.AppendVarint(dst, resp.Offset)
	}
	if bits&respCount != 0 {
		dst = binary.AppendVarint(dst, int64(resp.Count))
	}
	if bits&respOffsets != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Offsets)))
		for k, v := range resp.Offsets {
			dst = appendString(dst, k)
			dst = binary.AppendVarint(dst, v)
		}
	}
	if bits&respMsgs != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Msgs)))
		for i := range resp.Msgs {
			dst = appendMessage(dst, &resp.Msgs[i])
		}
	}
	return dst
}

// bit returns b when the field is present.
func bit(present bool, b uint64) uint64 {
	if present {
		return b
	}
	return 0
}

func appendMessage(dst []byte, m *bus.Message) []byte {
	dst = appendString(dst, m.Topic)
	dst = binary.AppendVarint(dst, int64(m.Partition))
	dst = binary.AppendVarint(dst, m.Offset)
	dst = appendString(dst, m.Key)
	if m.Value == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(m.Value))+1)
		dst = append(dst, m.Value...)
	}
	if m.Headers == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(m.Headers))+1)
		dst = appendPairs(dst, m.Headers)
	}
	return binary.AppendVarint(dst, m.Time.UnixNano())
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendHeaders(dst []byte, h map[string]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(h)))
	return appendPairs(dst, h)
}

func appendPairs(dst []byte, h map[string]string) []byte {
	for k, v := range h {
		dst = appendString(dst, k)
		dst = appendString(dst, v)
	}
	return dst
}

// payloadDecoder walks one payload. Strings that repeat across messages
// (topics, keys, sources, header names and values) are interned through
// strs, so a connection's decoder allocates each distinct one once.
type payloadDecoder struct {
	buf  []byte
	bad  bool
	strs *strTable
}

func (d *payloadDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *payloadDecoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// int decodes a varint that must fit the platform int.
func (d *payloadDecoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

// count decodes an element count, each element at least minBytes long,
// and rejects counts the remaining payload cannot hold.
func (d *payloadDecoder) count(minBytes int) int {
	n := d.uvarint()
	if d.bad || n > uint64(len(d.buf)/minBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

// bytes returns the next n bytes without copying.
func (d *payloadDecoder) bytes(n uint64) []byte {
	if d.bad || n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

func (d *payloadDecoder) string() string {
	b := d.bytes(d.uvarint())
	if d.bad || len(b) == 0 {
		return ""
	}
	return d.strs.intern(b)
}

// stringPairs decodes n header pairs into a fresh map.
func (d *payloadDecoder) stringPairs(n int) map[string]string {
	m := make(map[string]string, n)
	for i := 0; i < n && !d.bad; i++ {
		k := d.string()
		m[k] = d.string()
	}
	return m
}

func (d *payloadDecoder) fail() {
	d.bad = true
	d.buf = nil
}

// finish reports the decode outcome: any malformed field, or bytes left
// over after the last field, is ErrBadPayload.
func (d *payloadDecoder) finish() error {
	if d.bad || len(d.buf) != 0 {
		return ErrBadPayload
	}
	return nil
}

// bitmap decodes the presence bitmap, rejecting bits outside all.
func (d *payloadDecoder) bitmap(all uint64) uint64 {
	bits := d.uvarint()
	if bits&^all != 0 {
		d.fail()
	}
	return bits
}

// decodeRequest decodes a request payload into req, interning strings
// through strs (nil interns nothing). Value aliases p.
func decodeRequest(p []byte, req *Request, strs *strTable) error {
	d := payloadDecoder{buf: p, strs: strs}
	bits := d.bitmap(reqAll)
	*req = Request{}
	if bits&reqTopic != 0 {
		req.Topic = d.string()
	}
	if bits&reqPartition != 0 {
		req.Partition = d.int()
	}
	if bits&reqPartitions != 0 {
		req.Partitions = d.int()
	}
	if bits&reqKey != 0 {
		req.Key = d.string()
	}
	if bits&reqValue != 0 {
		req.Value = d.bytes(d.uvarint())
	}
	if bits&reqHeaders != 0 {
		req.Headers = d.stringPairs(d.count(2))
	}
	if bits&reqGroup != 0 {
		req.Group = d.string()
	}
	if bits&reqTopics != 0 {
		n := d.count(1)
		req.Topics = make([]string, n)
		for i := range req.Topics {
			req.Topics[i] = d.string()
		}
	}
	if bits&reqOffset != 0 {
		req.Offset = d.varint()
	}
	if bits&reqMax != 0 {
		req.Max = d.int()
	}
	req.Manual = bits&reqManual != 0
	if bits&reqWaitMs != 0 {
		req.WaitMs = d.varint()
	}
	if bits&reqSource != 0 {
		req.Source = d.string()
	}
	if bits&reqSeq != 0 {
		req.Seq = d.uvarint()
	}
	if err := d.finish(); err != nil {
		*req = Request{}
		return err
	}
	return nil
}

// decodeResponse decodes a response payload into resp, interning strings
// through strs (nil interns nothing). Message values alias p.
func decodeResponse(p []byte, resp *Response, strs *strTable) error {
	d := payloadDecoder{buf: p, strs: strs}
	bits := d.bitmap(respAll)
	*resp = Response{}
	if bits&respErr != 0 {
		resp.Err = d.string()
	}
	if bits&respPartition != 0 {
		resp.Partition = d.int()
	}
	if bits&respOffset != 0 {
		resp.Offset = d.varint()
	}
	if bits&respCount != 0 {
		resp.Count = d.int()
	}
	if bits&respOffsets != 0 {
		n := d.count(2)
		resp.Offsets = make(map[string]int64, n)
		for i := 0; i < n && !d.bad; i++ {
			k := d.string()
			resp.Offsets[k] = d.varint()
		}
	}
	if bits&respMsgs != 0 {
		n := d.count(minMsgBytes)
		resp.Msgs = make([]bus.Message, n)
		for i := 0; i < n && !d.bad; i++ {
			d.message(&resp.Msgs[i])
		}
	}
	resp.Dup = bits&respDup != 0
	if err := d.finish(); err != nil {
		*resp = Response{}
		return err
	}
	return nil
}

func (d *payloadDecoder) message(m *bus.Message) {
	m.Topic = d.string()
	m.Partition = d.int()
	m.Offset = d.varint()
	m.Key = d.string()
	if n := d.uvarint(); n > 0 {
		m.Value = d.bytes(n - 1)
	}
	if n := d.uvarint(); n > 0 {
		if n-1 > uint64(len(d.buf)/2) {
			d.fail()
			return
		}
		m.Headers = d.stringPairs(int(n - 1))
	}
	m.Time = time.Unix(0, d.varint())
}

// maxInterned bounds a strTable; past it the table starts over, so a
// stream of unique strings costs at most one map insert each.
const maxInterned = 4096

// strTable interns decoded strings for one connection's decoder. A nil
// table interns nothing. Not safe for concurrent use.
type strTable struct {
	m map[string]string
}

func newStrTable() *strTable { return &strTable{m: make(map[string]string)} }

func (t *strTable) intern(b []byte) string {
	if t == nil {
		return string(b)
	}
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t.m) >= maxInterned {
		clear(t.m)
	}
	t.m[s] = s
	return s
}
