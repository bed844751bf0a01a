// Netbus transport round-trip: the per-publish cost of the framed RPC
// path — binary payload encode, CRC frame, loopback TCP write, broker
// dispatch, bus append, and the acked response — measured against a
// real broker socket because the syscall boundary IS the cost being
// guarded.
//
// Rerun with:
//
//	go test -run='^$' -bench=BenchmarkNetbusRoundTrip -benchmem -count=5 .
package loglens

import (
	"context"
	"testing"
	"time"

	"loglens/internal/bus"
	"loglens/internal/netbus"
)

// BenchmarkNetbusRoundTrip is the guarded transport benchmark: ns/op is
// one acked publish over loopback TCP, end to end through the broker.
func BenchmarkNetbusRoundTrip(b *testing.B) {
	srv := netbus.NewServer(bus.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	client := netbus.Dial(addr, netbus.Options{})
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = client.WaitConnected(ctx)
	cancel()
	if err != nil {
		b.Fatal(err)
	}
	if err := client.CreateTopic("bench", 1); err != nil {
		b.Fatal(err)
	}

	line := []byte("<13>Feb  5 17:32:18 web01 sshd[4721]: session 42 opened for user app")
	headers := map[string]string{"source": "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Publish("bench", "bench", line, headers); err != nil {
			b.Fatal(err)
		}
	}
}
