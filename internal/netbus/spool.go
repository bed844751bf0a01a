package netbus

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"loglens/internal/frame"
	"loglens/internal/fsx"
)

// Each spool record on disk is a frame record (package frame) whose
// payload is the binary encoding (appendRequest) of the exact publish
// Request the drainer sends: the record on disk is the request that goes
// out. A torn tail (partial last record, bad CRC, undecodable payload) is
// truncated away on open: the valid prefix is the spool. Everything
// replayed is treated as unacked and re-sent; the broker's
// per-(topic, source) sequence dedup makes the re-send harmless.

// DefaultSpoolMaxBytes caps the spool at 4 MiB of framed records unless
// configured otherwise.
const DefaultSpoolMaxBytes = 4 << 20

// compactSlack is how many acked (dead) bytes may accumulate at the
// head of the spool file before it is compacted by atomic rewrite.
const compactSlack = 1 << 20

// ErrSpoolRecordTooBig reports a record larger than the spool cap or
// than one publish payload. Append refuses it and changes nothing: queued
// behind the cap it would shed every other line, and past
// MaxPayloadBytes the broker could never accept it.
var ErrSpoolRecordTooBig = errors.New("netbus: spool record too big")

// spoolEntry is one queued publish with its on-disk footprint.
type spoolEntry struct {
	req  Request
	size int64 // framed record size on disk
}

// Spool is the publisher's bounded outage buffer: publish requests append
// at the tail, drain from the head, and when the byte cap is hit the
// OLDEST unacked ones are shed first — the newest data is the most valuable
// to an operator watching a live system, and Shed counts what was
// dropped. With a filesystem attached the
// queue is mirrored to one CRC-framed file so a crashed or restarted
// agent resumes with its backlog intact; with none it is memory-only.
type Spool struct {
	fsys fsx.FS // nil = memory-only
	path string
	max  int64

	mu      sync.Mutex
	entries []spoolEntry
	bytes   int64 // live (unacked) framed bytes
	dead    int64 // acked bytes still occupying the file head
	shed    uint64
}

// SpoolOptions configures a Spool.
type SpoolOptions struct {
	// FS and Path locate the backing file; leave FS nil for a
	// memory-only spool (tests, diskless agents).
	FS   fsx.FS
	Path string
	// MaxBytes caps the live framed bytes (default DefaultSpoolMaxBytes).
	MaxBytes int64
}

// OpenSpool opens (or creates) a spool, replaying any valid record
// prefix left by a previous run and repairing a torn tail in place.
func OpenSpool(opt SpoolOptions) (*Spool, error) {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = DefaultSpoolMaxBytes
	}
	s := &Spool{fsys: opt.FS, path: opt.Path, max: opt.MaxBytes}
	if s.fsys == nil {
		return s, nil
	}
	data, err := s.fsys.ReadFile(s.path)
	if err != nil {
		// Absent file: fresh spool. Anything else is a real I/O problem.
		if errors.Is(err, fs.ErrNotExist) {
			return s, nil
		}
		return nil, fmt.Errorf("netbus: open spool %s: %w", s.path, err)
	}
	valid := 0
	for valid < len(data) {
		payload, next, err := frame.Read(data, valid, MaxPayloadBytes)
		if err != nil {
			break // torn or corrupt tail
		}
		var req Request
		if decodeRequest(payload, &req, nil) != nil || req.Topic == "" {
			break
		}
		size := int64(next - valid)
		s.entries = append(s.entries, spoolEntry{req: req, size: size})
		s.bytes += size
		valid = next
	}
	if valid != len(data) {
		// Repair the torn tail now so a crash mid-session cannot stack a
		// second tear behind the first.
		if err := fsx.WriteFileAtomic(s.fsys, s.path, data[:valid], 0o644); err != nil {
			return nil, fmt.Errorf("netbus: repair spool %s: %w", s.path, err)
		}
	}
	s.enforceCapLocked()
	return s, nil
}

// Append queues one publish request, shedding from the head if the cap
// would be exceeded. The disk write happens before the request is visible
// to the drainer, so an acked line is always one that reached the file
// first. A record over the cap or over MaxPayloadBytes is refused with
// ErrSpoolRecordTooBig. The spool keeps req's Value and Headers, so the
// caller must not change them afterwards.
func (s *Spool) Append(req *Request) error {
	rec, _ := frame.Append(nil, req, appendPayload) // appendPayload cannot fail
	if limit := min(s.max, frame.HeaderSize+MaxPayloadBytes); int64(len(rec)) > limit {
		return fmt.Errorf("%w: %d-byte record, limit %d bytes", ErrSpoolRecordTooBig, len(rec), limit)
	}
	if s.fsys != nil {
		if err := s.fsys.Append(s.path, rec, 0o644); err != nil {
			return fmt.Errorf("netbus: spool append: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, spoolEntry{req: *req, size: int64(len(rec))})
	s.bytes += int64(len(rec))
	s.enforceCapLocked()
	return nil
}

// appendPayload is appendRequest in the shape frame.Append takes.
func appendPayload(dst []byte, req *Request) ([]byte, error) {
	return appendRequest(dst, req), nil
}

// enforceCapLocked sheds oldest-first until the live bytes fit the cap.
// Shed records stay in the file as dead bytes until the next compaction;
// the in-memory queue is the authority on what is live.
func (s *Spool) enforceCapLocked() {
	for s.bytes > s.max && len(s.entries) > 0 {
		e := s.entries[0]
		s.entries = s.entries[1:]
		s.bytes -= e.size
		s.dead += e.size
		s.shed++
	}
}

// AckHead drops the head entry after a successful (or deduplicated)
// publish, compacting the file when enough dead bytes pile up.
func (s *Spool) AckHead() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return
	}
	e := s.entries[0]
	s.entries = s.entries[1:]
	s.bytes -= e.size
	s.dead += e.size
	if s.fsys != nil && s.dead >= compactSlack {
		s.compactLocked()
	}
	if len(s.entries) == 0 && s.fsys != nil && s.dead > 0 {
		s.compactLocked()
	}
}

// compactLocked rewrites the file to just the live entries (atomic
// replace, same crash-safety idiom as checkpoint files).
func (s *Spool) compactLocked() {
	var buf []byte
	for i := range s.entries {
		buf, _ = frame.Append(buf, &s.entries[i].req, appendPayload) // cannot fail
	}
	if err := fsx.WriteFileAtomic(s.fsys, s.path, buf, 0o644); err != nil {
		return // keep dead bytes; retry at the next ack
	}
	s.dead = 0
}

// Head returns the oldest queued request without removing it.
func (s *Spool) Head() (Request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return Request{}, false
	}
	return s.entries[0].req, true
}

// Len returns the number of queued (unacked) requests.
func (s *Spool) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the live framed bytes queued.
func (s *Spool) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Shed returns the total lines shed at the cap since open.
func (s *Spool) Shed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}
