// Package netbus puts the bus on TCP: a broker server exposing the
// in-process bus's topic/partition/consumer-group API as a length-framed
// RPC protocol, and a resilient client implementing the same bus
// interfaces (bus.Broker, bus.Reader) so the pipeline, the log manager,
// and the intake tier run unchanged against a remote broker — the
// paper's Kafka deployment shape (§II) over our own wire format.
//
// Frame layout (little-endian, CRC-framed like the storage WAL):
//
//	[0:2]   magic "LB"
//	[2]     protocol version (2)
//	[3]     op code
//	[4:12]  request id (echoed in the response)
//	[12:16] payload length
//	[16:20] CRC32 (IEEE) of the payload
//	[20:..] payload (Request on the way in, Response on the way out),
//	        in the binary codec of payload.go
//
// The magic and version bytes are checked before anything else is
// touched, so a peer speaking a different protocol or revision (a
// version-1 peer still sending JSON payloads, say) fails with
// ErrProtoMismatch at decode time instead of mis-parsing garbage lengths.
package netbus

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"

	"loglens/internal/bus"
)

// Protocol constants.
const (
	magic0  = 'L'
	magic1  = 'B'
	Version = 2

	// headerSize is the fixed frame header length.
	headerSize = 20

	// MaxPayloadBytes bounds one frame's payload. It also bounds a
	// spool record, which is a publish payload, so any line the spool
	// accepts fits one publish.
	MaxPayloadBytes = 16 << 20
)

// Op codes. Responses echo the request's op.
const (
	OpPublish byte = iota + 1
	OpPublishTo
	OpBroadcast
	OpCreateTopic
	OpPartitions
	OpEndOffset
	OpPoll
	OpCommit
	OpSeek
	OpSeekGroup
	OpGroupOffsets
	OpLag
	OpReadLag
	OpReadFrom
	// OpResume rewinds a group's read frontier to its committed offsets —
	// sent by a reconnecting client so in-flight batches that died with
	// the old connection are redelivered (at-least-once).
	OpResume
	// OpPing is the connection liveness probe.
	OpPing
	opMax
)

// opNames maps op codes to the metric label values of
// netbus_request_seconds{op}.
var opNames = [opMax]string{
	OpPublish:      "publish",
	OpPublishTo:    "publish_to",
	OpBroadcast:    "broadcast",
	OpCreateTopic:  "create_topic",
	OpPartitions:   "partitions",
	OpEndOffset:    "end_offset",
	OpPoll:         "poll",
	OpCommit:       "commit",
	OpSeek:         "seek",
	OpSeekGroup:    "seek_group",
	OpGroupOffsets: "group_offsets",
	OpLag:          "lag",
	OpReadLag:      "read_lag",
	OpReadFrom:     "read_from",
	OpResume:       "resume",
	OpPing:         "ping",
}

// Decode-time protocol errors.
var (
	// ErrProtoMismatch reports a frame whose magic or version byte does
	// not match this implementation.
	ErrProtoMismatch = errors.New("netbus: protocol magic/version mismatch")
	// ErrFrameTooBig reports a header announcing a payload beyond
	// MaxPayloadBytes.
	ErrFrameTooBig = errors.New("netbus: frame exceeds max payload size")
	// ErrChecksum reports a payload whose CRC32 does not match the header.
	ErrChecksum = errors.New("netbus: payload checksum mismatch")
	// ErrTruncated reports a buffer shorter than its header announces.
	ErrTruncated = errors.New("netbus: truncated frame")
	// ErrBadOp reports an op code outside the protocol's range.
	ErrBadOp = errors.New("netbus: unknown op code")
)

// Request is the RPC request payload. Fields are op-specific; unused
// ones stay at their zero value and are left out of the encoding.
type Request struct {
	Topic      string
	Partition  int
	Partitions int
	Key        string
	Value      []byte
	Headers    map[string]string
	Group      string
	Topics     []string
	Offset     int64
	Max        int
	// Manual runs the server-side consumer with auto-commit disabled
	// (OpPoll).
	Manual bool
	// WaitMs bounds how long an OpPoll may block broker-side before
	// returning an empty batch (0 = non-blocking TryPoll).
	WaitMs int64
	// Source and Seq carry the publisher's idempotence identity
	// (OpPublish): the broker drops a publish whose per-(topic, source)
	// sequence it has already appended, so a spooling agent may re-send
	// after a lost ack without duplicating lines. Seq 0 disables dedup.
	Source string
	Seq    uint64
}

// Response is the RPC response payload.
type Response struct {
	// Err carries a broker-side error as text ("" = success).
	Err string
	// Partition/Offset answer publishes and offset queries; Offset also
	// carries lag answers.
	Partition int
	Offset    int64
	// Count answers OpPartitions.
	Count int
	// Offsets answers OpGroupOffsets.
	Offsets map[string]int64
	// Msgs answers OpPoll/OpReadFrom.
	Msgs []bus.Message
	// Dup marks a publish the broker deduplicated (already-seen Seq):
	// acknowledged, nothing appended.
	Dup bool
}

// errResponse wraps a broker-side error for transit.
func errResponse(err error) Response {
	if err == nil {
		return Response{}
	}
	return Response{Err: err.Error()}
}

// AppendRequestFrame appends req, encoded and framed, to dst.
func AppendRequestFrame(dst []byte, op byte, id uint64, req *Request) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	return sealFrame(appendRequest(dst, req), start, op, id)
}

// AppendResponseFrame appends resp, encoded and framed, to dst.
func AppendResponseFrame(dst []byte, op byte, id uint64, resp *Response) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	return sealFrame(appendResponse(dst, resp), start, op, id)
}

// sealFrame fills in the header reserved at frame[start:] once the
// payload behind it is written. An oversize payload is cut off again and
// reported as ErrFrameTooBig.
func sealFrame(frame []byte, start int, op byte, id uint64) ([]byte, error) {
	payload := frame[start+headerSize:]
	if len(payload) > MaxPayloadBytes {
		return frame[:start], ErrFrameTooBig
	}
	h := frame[start : start+headerSize]
	h[0], h[1], h[2], h[3] = magic0, magic1, Version, op
	binary.LittleEndian.PutUint64(h[4:12], id)
	binary.LittleEndian.PutUint32(h[12:16], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[16:20], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// maxPooledFrame caps the frame buffers framePool keeps, so one large
// poll response does not pin its buffer.
const maxPooledFrame = 1 << 20

// framePool recycles encode buffers: a frame is dead once conn.Write
// returns.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte, frame []byte) {
	if cap(frame) > maxPooledFrame {
		return
	}
	*b = frame[:0]
	framePool.Put(b)
}

// DecodeFrame decodes one frame from the front of data, returning the
// remainder. The magic and version bytes are validated before anything
// else; a short buffer returns ErrTruncated (callers streaming from a
// socket read more and retry).
func DecodeFrame(data []byte) (op byte, id uint64, payload, rest []byte, err error) {
	if len(data) < 4 {
		// Not even magic+version+op yet: mismatch beats truncation so a
		// wrong-protocol peer fails fast on its first bytes.
		if len(data) >= 2 && (data[0] != magic0 || data[1] != magic1) {
			return 0, 0, nil, data, ErrProtoMismatch
		}
		return 0, 0, nil, data, ErrTruncated
	}
	if data[0] != magic0 || data[1] != magic1 || data[2] != Version {
		return 0, 0, nil, data, ErrProtoMismatch
	}
	op = data[3]
	if op == 0 || op >= opMax {
		return 0, 0, nil, data, ErrBadOp
	}
	if len(data) < headerSize {
		return 0, 0, nil, data, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(data[12:16])
	if n > MaxPayloadBytes {
		return 0, 0, nil, data, ErrFrameTooBig
	}
	if len(data) < headerSize+int(n) {
		return 0, 0, nil, data, ErrTruncated
	}
	payload = data[headerSize : headerSize+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[16:20]) {
		return 0, 0, nil, data, ErrChecksum
	}
	id = binary.LittleEndian.Uint64(data[4:12])
	return op, id, payload, data[headerSize+int(n):], nil
}

// frameReader reads frames from a stream. Unlike DecodeFrame a short
// read is an I/O error: the connection died mid-frame.
type frameReader struct {
	r   io.Reader
	hdr [headerSize]byte
}

// next reads one frame. The payload lands in buf when it has room (buf
// may be nil), so a caller that is done with each payload before the
// next read can reuse one buffer.
func (fr *frameReader) next(buf []byte) (op byte, id uint64, payload []byte, err error) {
	h := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, h); err != nil {
		return 0, 0, nil, err
	}
	if h[0] != magic0 || h[1] != magic1 || h[2] != Version {
		return 0, 0, nil, ErrProtoMismatch
	}
	op = h[3]
	if op == 0 || op >= opMax {
		return 0, 0, nil, ErrBadOp
	}
	n := binary.LittleEndian.Uint32(h[12:16])
	if n > MaxPayloadBytes {
		return 0, 0, nil, ErrFrameTooBig
	}
	if uint32(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(h[16:20]) {
		return 0, 0, nil, ErrChecksum
	}
	return op, binary.LittleEndian.Uint64(h[4:12]), payload, nil
}
