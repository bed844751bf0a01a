package netbus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"loglens/internal/frame"
	"loglens/internal/fsx"
)

func memSpool(t *testing.T, max int64) *Spool {
	t.Helper()
	s, err := OpenSpool(SpoolOptions{MaxBytes: max})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpoolFIFO(t *testing.T) {
	s := memSpool(t, 1<<20)
	for i := 0; i < 5; i++ {
		if err := s.Append(lineRequest("logs", "s", uint64(i+1), fmt.Sprintf("l%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f, ok := s.Head()
		if !ok || f.Seq != uint64(i+1) {
			t.Fatalf("head #%d = %+v, %v", i, f, ok)
		}
		s.AckHead()
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("drained spool: len=%d bytes=%d", s.Len(), s.Bytes())
	}
}

func TestSpoolShedsOldestFirst(t *testing.T) {
	s := memSpool(t, 200)

	var seqs []uint64
	for i := 1; i <= 20; i++ {
		if err := s.Append(lineRequest("logs", "s", uint64(i), "0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Bytes() > 200 {
		t.Fatalf("cap not enforced: %d bytes live", s.Bytes())
	}
	if s.Shed() == 0 {
		t.Fatal("nothing shed at the cap")
	}
	for {
		f, ok := s.Head()
		if !ok {
			break
		}
		seqs = append(seqs, f.Seq)
		s.AckHead()
	}
	// Survivors are the NEWEST frames, contiguous to the tail.
	if len(seqs) == 0 || seqs[len(seqs)-1] != 20 {
		t.Fatalf("tail lost: %v", seqs)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("gap inside survivors: %v", seqs)
		}
	}
	// Every appended line is either a survivor or counted as shed.
	if got := s.Shed() + uint64(len(seqs)); got != 20 {
		t.Fatalf("shed %d + survivors %d = %d, want 20", s.Shed(), len(seqs), got)
	}
}

// TestSpoolRefusesOversizeRecord: a record over the cap is refused whole.
// Queued, it would shed every line ahead of it and then itself.
func TestSpoolRefusesOversizeRecord(t *testing.T) {
	s := memSpool(t, 200)
	for i := 1; i <= 3; i++ {
		if err := s.Append(lineRequest("logs", "s", uint64(i), "small")); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Append(lineRequest("logs", "s", 4, strings.Repeat("x", 201)))
	if !errors.Is(err, ErrSpoolRecordTooBig) {
		t.Fatalf("oversize append = %v, want ErrSpoolRecordTooBig", err)
	}
	if s.Len() != 3 || s.Shed() != 0 {
		t.Fatalf("after refusal: len=%d shed=%d, want 3 and 0", s.Len(), s.Shed())
	}

	// Past one publish payload the broker could never take the line, so
	// a cap above MaxPayloadBytes refuses it too.
	big := memSpool(t, 2*MaxPayloadBytes)
	err = big.Append(lineRequest("logs", "s", 1, strings.Repeat("x", MaxPayloadBytes)))
	if !errors.Is(err, ErrSpoolRecordTooBig) || big.Len() != 0 {
		t.Fatalf("over-payload append = %v (len %d), want ErrSpoolRecordTooBig", err, big.Len())
	}
}

// appendRaw frames a payload as is.
func appendRaw(dst, p []byte) ([]byte, error) { return append(dst, p...), nil }

// TestSpoolSkipsJSONRecords: a spool file of the earlier JSON line
// records replays nothing; the open repairs it to empty as a torn tail.
func TestSpoolSkipsJSONRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.dat")
	rec, _ := frame.Append(nil, []byte(`{"source":"s","seq":1,"raw":"line"}`), appendRaw)
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("replayed %d JSON records", s.Len())
	}
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("file not repaired: %d bytes left", len(data))
	}
}

func TestSpoolReplayFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spool.dat")
	s, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Append(lineRequest("logs", "s", uint64(i), "line"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.AckHead() // ack #1; #2 and #3 remain live

	// "Crash": reopen from the same file. Acked entries may reappear
	// (dead bytes not yet compacted) — the broker's dedup absorbs that;
	// what matters is no LIVE entry is lost and order holds.
	s2, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for {
		f, ok := s2.Head()
		if !ok {
			break
		}
		seqs = append(seqs, f.Seq)
		s2.AckHead()
	}
	if len(seqs) < 2 || seqs[len(seqs)-1] != 3 {
		t.Fatalf("replay lost live entries: %v", seqs)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("replay out of order: %v", seqs)
		}
	}
}

func TestSpoolTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spool.dat")
	s, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Append(lineRequest("logs", "s", uint64(i), "intact")); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the tail: a partial record, as a crash mid-append leaves.
	if err := (fsx.OS{}).Append(path, []byte{0xFF, 0x00, 0x00, 0x00, 0xAA, 0xBB}, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if s2.Len() != 3 {
		t.Fatalf("replay = %d entries, want 3 (valid prefix)", s2.Len())
	}
	// The repair rewrote the file to the valid prefix: a third open must
	// see clean framing and the same entries.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil || s3.Len() != 3 {
		t.Fatalf("after repair: %d entries, %v (file %d bytes)", s3.Len(), err, len(data))
	}
}

func TestSpoolCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spool.dat")
	s, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(lineRequest("logs", "s", 1, "ok")); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip a payload byte: CRC now fails, replay must stop at record 0.
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("replayed %d corrupt entries", s2.Len())
	}
}

// TestPublisherDrainAcrossReconnect is the satellite drain-ordering
// proof: lines spooled during a broker outage arrive in order, exactly
// once, after the link comes back.
func TestPublisherDrainAcrossReconnect(t *testing.T) {
	srv, c := startBroker(t, Options{
		Role:           "agent",
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
		RequestTimeout: time.Second,
	})
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	spool := memSpool(t, 1<<20)
	pub := NewPublisher(c, "logs", spool)
	defer pub.Close()

	send := func(lo, hi int) {
		for i := lo; i <= hi; i++ {
			if err := pub.Send("src", uint64(i), fmt.Sprintf("line-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(1, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pub.Drain(ctx); err != nil {
		t.Fatalf("pre-outage drain: %v", err)
	}

	// Outage: lines 11..30 land in the spool only.
	addr := srv.Addr()
	srv.Stop()
	send(11, 30)
	if spool.Len() == 0 {
		t.Fatal("outage lines should be spooled")
	}

	// Heal and drain.
	if _, err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	if err := pub.Drain(ctx); err != nil {
		t.Fatalf("post-outage drain: %v", err)
	}

	msgs, err := srv.Bus().ReadFrom("logs", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 30 {
		t.Fatalf("broker has %d lines, want 30 (lost or duplicated)", len(msgs))
	}
	for i, m := range msgs {
		want := fmt.Sprintf("line-%d", i+1)
		if string(m.Value) != want {
			t.Fatalf("offset %d = %q, want %q (order broken)", i, m.Value, want)
		}
	}
}

// TestPublisherDiskReplayResumes proves a restarted agent re-ships its
// on-disk backlog without duplicating what the broker already has.
func TestPublisherDiskReplayResumes(t *testing.T) {
	srv, c := startBroker(t, Options{Role: "agent", BackoffBase: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond})
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "spool.dat")
	spool, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(c, "logs", spool)
	for i := 1; i <= 5; i++ {
		if err := pub.Send("src", uint64(i), fmt.Sprintf("l%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pub.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	pub.Close()

	// "Agent restart": reopen the spool file; acked-but-uncompacted
	// records replay as unacked and re-ship. The broker's sequence dedup
	// must keep the log at exactly 5 lines.
	spool2, err := OpenSpool(SpoolOptions{FS: fsx.OS{}, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	pub2 := NewPublisher(c, "logs", spool2)
	defer pub2.Close()
	if err := pub2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if end, _ := srv.Bus().EndOffset("logs", 0); end != 5 {
		t.Fatalf("EndOffset = %d, want 5 (replay duplicated)", end)
	}
}
