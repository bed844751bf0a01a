// Package frame is the record frame shared by every append-only file in
// LogLens — the storage WAL, segment document records and the agent
// spool. All integers are little-endian:
//
//	[0:4] payload length (u32)
//	[4:8] CRC32 (IEEE) of the payload (u32)
//	[8:]  payload
//
// One torn-tail rule goes with it: a reader walks records from the start
// of a file and stops at the first one that is short or fails its
// checksum. The records before it are the file; what follows is the
// debris of a crash mid-append, which the writer truncates away before it
// appends again.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// HeaderSize is the length of the [len][crc] header before each payload.
const HeaderSize = 8

var (
	// ErrTruncated reports a record that runs past the end of the data,
	// or whose length exceeds the reader's bound.
	ErrTruncated = errors.New("frame: truncated")
	// ErrChecksum reports a payload whose CRC32 does not match its header.
	ErrChecksum = errors.New("frame: checksum mismatch")
)

// Append frames the payload enc appends onto dst, encoding it in place
// behind a reserved header. On error dst comes back as it was.
func Append[T any](dst []byte, v T, enc func([]byte, T) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	dst, err := enc(append(dst, make([]byte, HeaderSize)...), v)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[start+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:start+HeaderSize], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// Read decodes the record at off, returning its payload (aliasing data)
// and the offset of the next record. A payload longer than max is
// ErrTruncated: the length field itself is then suspect. Callers decide
// whether an error is corruption (segments) or a torn tail (WAL, spool).
func Read(data []byte, off, max int) (payload []byte, next int, err error) {
	if off < 0 || off+HeaderSize > len(data) {
		return nil, 0, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+HeaderSize])
	if n > max || off+HeaderSize+n > len(data) {
		return nil, 0, ErrTruncated
	}
	payload = data[off+HeaderSize : off+HeaderSize+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, ErrChecksum
	}
	return payload, off + HeaderSize + n, nil
}
