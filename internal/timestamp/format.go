// Package timestamp implements LogLens timestamp identification (§III-A2):
// recognizing heterogeneous timestamp formats inside tokenized logs and
// unifying them into the single DATETIME format yyyy/MM/dd HH:mm:ss.SSS.
//
// Formats are specified in Java SimpleDateFormat notation, as in the
// paper, and converted internally to Go time layouts. The identifier ships
// with 89 predefined formats and accepts user-supplied ones. Two
// optimizations — caching matched formats and keyword filtering — bring
// amortized identification cost to O(1) (§III-A2, evaluated in §VI-A).
package timestamp

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// UnifiedLayout is the Go layout of the unified DATETIME format
// ("yyyy/MM/dd HH:mm:ss.SSS" in SimpleDateFormat notation).
const UnifiedLayout = "2006/01/02 15:04:05.000"

// Unify renders t in the unified DATETIME format.
func Unify(t time.Time) string {
	var buf [len(UnifiedLayout)]byte
	return string(AppendUnified(buf[:0], t))
}

// AppendUnified appends t in the unified DATETIME format to dst and
// returns the extended buffer, letting hot-path callers render without a
// string allocation. It writes the fixed-width digits itself for years
// 0–9999, the bytes t.AppendFormat(dst, UnifiedLayout) writes, and
// leaves other years to AppendFormat.
func AppendUnified(dst []byte, t time.Time) []byte {
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.AppendFormat(dst, UnifiedLayout)
	}
	hour, min, sec := t.Clock()
	ms := t.Nanosecond() / 1e6
	return append(dst,
		byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '/',
		byte('0'+month/10), byte('0'+month%10), '/',
		byte('0'+day/10), byte('0'+day%10), ' ',
		byte('0'+hour/10), byte('0'+hour%10), ':',
		byte('0'+min/10), byte('0'+min%10), ':',
		byte('0'+sec/10), byte('0'+sec%10), '.',
		byte('0'+ms/100), byte('0'+ms/10%10), byte('0'+ms%10))
}

// Format is one recognizable timestamp format. A format spans Tokens
// whitespace-separated tokens (e.g. "MMM dd, yyyy HH:mm:ss" spans four).
type Format struct {
	// Spec is the original SimpleDateFormat specification.
	Spec string

	// Layout is the converted Go time layout.
	Layout string

	// Tokens is the number of whitespace-separated tokens the format
	// consumes.
	Tokens int

	// pre, when non-nil, rewrites the joined token text before parsing
	// (used for separators Go layouts cannot express, such as
	// HH:mm:ss:SSS).
	pre func(string) string

	// parseFn, when non-nil, replaces layout-based parsing entirely
	// (used for epoch formats).
	parseFn func(string) (time.Time, bool)
}

// EpochSeconds returns a Format recognizing 10-digit Unix-second
// timestamps. It is not part of the predefined table; add it with
// WithFormats when a source logs epoch times.
func EpochSeconds() Format {
	return Format{
		Spec:    "epoch",
		Tokens:  1,
		parseFn: func(s string) (time.Time, bool) { return parseEpoch(epochSeconds, s) },
	}
}

// EpochMillis returns a Format recognizing 13-digit Unix-millisecond
// timestamps.
func EpochMillis() Format {
	return Format{
		Spec:    "epochmillis",
		Tokens:  1,
		parseFn: func(s string) (time.Time, bool) { return parseEpoch(epochMillis, s) },
	}
}

// NewFormat converts a SimpleDateFormat specification into a Format.
func NewFormat(spec string) (Format, error) {
	layout, pre, err := convertSpec(spec)
	if err != nil {
		return Format{}, err
	}
	return Format{
		Spec:   spec,
		Layout: layout,
		Tokens: 1 + strings.Count(spec, " "),
		pre:    pre,
	}, nil
}

// MustFormat is NewFormat for static tables; it panics on a bad spec.
func MustFormat(spec string) Format {
	f, err := NewFormat(spec)
	if err != nil {
		panic(err)
	}
	return f
}

// Parse attempts to parse the joined token text with this format.
func (f Format) Parse(text string) (time.Time, bool) {
	if f.parseFn != nil {
		return f.parseFn(text)
	}
	if f.pre != nil {
		text = f.pre(text)
	}
	t, err := time.Parse(f.Layout, text)
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}

// convertSpec translates SimpleDateFormat notation to a Go layout. It
// supports the subset of directives that appear in real-world log
// timestamps. Quoted literals ('T') are unquoted. The second return value
// is an optional pre-processing function for patterns Go cannot express
// directly (":SSS" millisecond separators).
func convertSpec(spec string) (string, func(string) string, error) {
	var b strings.Builder
	var pre func(string) string
	i := 0
	for i < len(spec) {
		c := spec[i]
		switch c {
		case '\'':
			// Quoted literal, '' is a literal quote.
			j := i + 1
			for j < len(spec) && spec[j] != '\'' {
				j++
			}
			if j >= len(spec) {
				return "", nil, fmt.Errorf("timestamp: unterminated quote in %q", spec)
			}
			if j == i+1 {
				b.WriteByte('\'')
			} else {
				b.WriteString(spec[i+1 : j])
			}
			i = j + 1
		case 'y', 'M', 'd', 'H', 'h', 'm', 's', 'S', 'E', 'a', 'z', 'Z', 'X':
			j := i
			for j < len(spec) && spec[j] == c {
				j++
			}
			run := j - i
			verb, err := convertRun(c, run)
			if err != nil {
				return "", nil, fmt.Errorf("timestamp: %q: %w", spec, err)
			}
			if c == 'S' {
				// Go fractional seconds must follow '.' or ','.
				// If the spec separated millis with ':',
				// rewrite the value at parse time.
				if b.Len() > 0 && strings.HasSuffix(b.String(), ":") {
					s := b.String()
					b.Reset()
					b.WriteString(s[:len(s)-1] + ".")
					pre = rewriteLastColonToDot
				}
			}
			b.WriteString(verb)
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String(), pre, nil
}

func convertRun(c byte, n int) (string, error) {
	switch c {
	case 'y':
		if n <= 2 {
			return "06", nil
		}
		return "2006", nil
	case 'M':
		switch {
		case n == 1:
			return "1", nil
		case n == 2:
			return "01", nil
		case n == 3:
			return "Jan", nil
		default:
			return "January", nil
		}
	case 'd':
		if n == 1 {
			return "2", nil
		}
		return "02", nil
	case 'H':
		return "15", nil
	case 'h':
		if n == 1 {
			return "3", nil
		}
		return "03", nil
	case 'm':
		if n == 1 {
			return "4", nil
		}
		return "04", nil
	case 's':
		if n == 1 {
			return "5", nil
		}
		return "05", nil
	case 'S':
		return strings.Repeat("0", n), nil
	case 'E':
		if n >= 4 {
			return "Monday", nil
		}
		return "Mon", nil
	case 'a':
		return "PM", nil
	case 'z':
		return "MST", nil
	case 'Z':
		return "-0700", nil
	case 'X':
		switch n {
		case 1:
			return "-07", nil
		case 2:
			return "-0700", nil
		default:
			return "-07:00", nil
		}
	}
	return "", fmt.Errorf("unsupported directive %c", c)
}

// rewriteLastColonToDot converts "...:SSS" millisecond text to "...\.SSS"
// so Go's parser accepts it: the final colon followed by exactly three
// digits at end of string becomes a dot.
func rewriteLastColonToDot(s string) string {
	if len(s) < 4 {
		return s
	}
	i := len(s) - 4
	if s[i] != ':' {
		return s
	}
	for j := i + 1; j < len(s); j++ {
		if s[j] < '0' || s[j] > '9' {
			return s
		}
	}
	return s[:i] + "." + s[i+1:]
}

// epochFormat recognizes 10-digit Unix-second and 13-digit Unix-milli
// timestamps. It is part of the predefined table.
type epochKind int

const (
	epochSeconds epochKind = iota + 1
	epochMillis
)

func parseEpoch(kind epochKind, text string) (time.Time, bool) {
	for i := 0; i < len(text); i++ {
		if text[i] < '0' || text[i] > '9' {
			return time.Time{}, false
		}
	}
	switch kind {
	case epochSeconds:
		if len(text) != 10 {
			return time.Time{}, false
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return time.Time{}, false
		}
		return time.Unix(v, 0).UTC(), true
	case epochMillis:
		if len(text) != 13 {
			return time.Time{}, false
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return time.Time{}, false
		}
		return time.Unix(v/1000, (v%1000)*int64(time.Millisecond)).UTC(), true
	}
	return time.Time{}, false
}
