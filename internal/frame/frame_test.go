package frame

import (
	"bytes"
	"errors"
	"testing"
)

func appendBytes(dst, p []byte) ([]byte, error) { return append(dst, p...), nil }

func TestAppendReadRoundTrip(t *testing.T) {
	var data []byte
	for _, p := range []string{"one", "", "three"} {
		var err error
		if data, err = Append(data, []byte(p), appendBytes); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for off := 0; off < len(data); {
		payload, next, err := Read(data, off, 1<<10)
		if err != nil {
			t.Fatalf("record at %d: %v", off, err)
		}
		got = append(got, string(payload))
		off = next
	}
	if len(got) != 3 || got[0] != "one" || got[1] != "" || got[2] != "three" {
		t.Fatalf("read back %q", got)
	}
}

func TestAppendErrorLeavesDst(t *testing.T) {
	boom := errors.New("boom")
	dst := []byte("keep")
	out, err := Append(dst, 0, func(d []byte, _ int) ([]byte, error) { return append(d, "junk"...), boom })
	if !errors.Is(err, boom) || !bytes.Equal(out, []byte("keep")) {
		t.Fatalf("Append on encoder error = %q, %v", out, err)
	}
}

func TestReadRejects(t *testing.T) {
	rec, _ := Append(nil, []byte("payload"), appendBytes)
	flipped := append([]byte{}, rec...)
	flipped[len(flipped)-1] ^= 1
	for _, tc := range []struct {
		name string
		data []byte
		off  int
		max  int
		want error
	}{
		{"short header", rec[:HeaderSize-1], 0, 1 << 10, ErrTruncated},
		{"short payload", rec[:len(rec)-1], 0, 1 << 10, ErrTruncated},
		{"negative offset", rec, -1, 1 << 10, ErrTruncated},
		{"over max", rec, 0, len("payload") - 1, ErrTruncated},
		{"bad crc", flipped, 0, 1 << 10, ErrChecksum},
	} {
		if _, _, err := Read(tc.data, tc.off, tc.max); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
