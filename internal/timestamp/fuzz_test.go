package timestamp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzIdentify: arbitrary input must never panic, and every reported match
// must re-parse under its reported format to the same instant.
func FuzzIdentify(f *testing.F) {
	for _, seed := range []string{
		"2016/02/23 09:00:31.000 login",
		"Feb 23, 2016 09:00:31 x",
		"23/02 09:00:31:123",
		"1456218031",
		"no timestamps here",
		"9999/99/99 99:99:99",
		"-1/-1/-1 1:1:1",
		"0000/00/00 00:00:00.000",
		"2016-02-23T09:00:31+05:00",
	} {
		f.Add(seed)
	}
	id := New()
	f.Fuzz(func(t *testing.T, line string) {
		tokens := strings.Fields(line)
		m, ok := id.Identify(tokens)
		if !ok {
			return
		}
		if m.Start < 0 || m.Start+m.Tokens > len(tokens) {
			t.Fatalf("match span [%d,%d) out of bounds for %d tokens", m.Start, m.Start+m.Tokens, len(tokens))
		}
		// Re-parse the matched text under the reported spec.
		var fmtMatch Format
		found := false
		for _, fm := range id.Formats() {
			if fm.Spec == m.Spec {
				fmtMatch = fm
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("reported spec %q not in format table", m.Spec)
		}
		text := strings.Join(tokens[m.Start:m.Start+m.Tokens], " ")
		got, ok := fmtMatch.Parse(text)
		if !ok {
			t.Fatalf("reported match %q does not re-parse under %q", text, m.Spec)
		}
		if !got.Equal(m.Time) {
			t.Fatalf("re-parse of %q gives %v, match said %v", text, got, m.Time)
		}
	})
}

// FuzzConvertSpec: arbitrary SimpleDateFormat specs must never panic.
func FuzzConvertSpec(f *testing.F) {
	for _, seed := range []string{
		"yyyy/MM/dd HH:mm:ss.SSS",
		"yyyy-MM-dd'T'HH:mm:ssXXX",
		"'unterminated",
		"''",
		"Q",
		"yyyyyyyyyy",
		"HH:mm:ss:SSS",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fm, err := NewFormat(spec)
		if err != nil {
			return
		}
		// A valid format must be usable without panicking.
		fm.Parse("2016/02/23 09:00:31")
	})
}

// FuzzAppendUnified: AppendUnified writes, byte for byte, what
// t.Format(UnifiedLayout) writes, for any instant in any fixed zone —
// the fixed-width path for years 0–9999 and AppendFormat outside them —
// and appends after what dst already holds.
func FuzzAppendUnified(f *testing.F) {
	for _, seed := range []struct {
		sec, nsec int64
		zone      int32
	}{
		{1456218031, 123456789, 0},
		{951782400, 999999999, 3600},         // 2000-02-29
		{-62167219200, 0, 0},                 // 0000-01-01
		{-62167219201, 0, 0},                 // year -1
		{253402300799, 999000000, 0},         // 9999-12-31 23:59:59.999
		{253402300800, 0, 0},                 // year 10000
		{253402300799, 0, 14 * 3600},         // year 10000 by the zone
		{-62167219200, 0, -(5*3600 + 30*60)}, // year -1 by the zone
		{0, 1e6 - 1, 19*60 + 32},             // a zone offset with seconds
		{1 << 62, 0, 0},                      // far future
		{-1 << 62, 0, 0},                     // far past
		{1456218031, -1, 0},                  // nanoseconds carry into seconds
		{1456218031, 5e9, -12 * 3600},        // and out of them
	} {
		f.Add(seed.sec, seed.nsec, seed.zone)
	}
	f.Fuzz(func(t *testing.T, sec, nsec int64, zone int32) {
		tm := time.Unix(sec, nsec).In(time.FixedZone("Z", int(zone%(26*3600))))
		want := tm.Format(UnifiedLayout)
		if got := AppendUnified([]byte("x"), tm); !bytes.Equal(got, []byte("x"+want)) {
			t.Fatalf("AppendUnified(%v) = %q, want %q", tm, got[1:], want)
		}
		if got := Unify(tm); got != want {
			t.Fatalf("Unify(%v) = %q, want %q", tm, got, want)
		}
	})
}
