package intake

import (
	"fmt"
	"testing"

	"loglens/internal/clock"
)

// loopReader replays one byte buffer forever: an endless in-memory wire
// stream for the frame scanner, so the count leaves out the socket.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off += n
	if r.off == len(r.data) {
		r.off = 0
	}
	return n, nil
}

// TestWireAllocsPerLine holds the front door's per-line wire path —
// RFC 6587 framing, syslog header parse, tenant admission — to its
// allocation budget on each framing.
func TestWireAllocsPerLine(t *testing.T) {
	for _, c := range []struct {
		name   string
		frame  func(i int) string
		budget float64
	}{
		{"newline3164", func(i int) string {
			return fmt.Sprintf("<13>Feb  5 17:32:18 web%02d sshd[4721]: session %d opened for user app\n", i%8, i)
		}, 3},
		{"octet5424", func(i int) string {
			body := fmt.Sprintf("<165>1 2003-10-11T22:14:15.003Z host%02d su 1234 ID47 - request %d served", i%8, i)
			return fmt.Sprintf("%d %s", len(body), body)
		}, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			var data []byte
			for i := 0; i < 512; i++ {
				data = append(data, c.frame(i)...)
			}
			lim := NewLimiter(clock.New(), 0, 0) // unlimited, but still on the path
			sc := NewFrameScanner(&loopReader{data: data}, 0)
			got := testing.AllocsPerRun(4096, func() {
				if !sc.Scan() {
					t.Fatal(sc.Err())
				}
				m, err := ParseSyslog(sc.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				tenant := m.Hostname
				if tenant == "" {
					tenant = DefaultTenant
				}
				if ok, _ := lim.Take(tenant); !ok {
					t.Fatal("unlimited limiter refused a line")
				}
			})
			if got > c.budget {
				t.Fatalf("%.0f allocs per line, budget %.0f", got, c.budget)
			}
		})
	}
}
