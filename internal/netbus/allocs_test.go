package netbus

import "testing"

// TestPublishAllocs holds one acked publish over loopback TCP — payload
// encode, CRC frame, socket write, broker dispatch, bus append and the
// acked response, client and broker counted together — to its
// allocation budget.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	_, c := startBroker(t, Options{})
	if err := c.CreateTopic("logs", 1); err != nil {
		t.Fatal(err)
	}
	line := []byte("<13>Feb  5 17:32:18 web01 sshd[4721]: session 42 opened for user app")
	headers := map[string]string{"source": "web01"}
	got := testing.AllocsPerRun(2000, func() {
		if _, _, err := c.Publish("logs", "web01", line, headers); err != nil {
			t.Fatal(err)
		}
	})
	if got > 12 {
		t.Fatalf("%.0f allocs per acked publish, budget 12", got)
	}
}
