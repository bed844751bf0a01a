package core

import (
	"testing"
	"time"

	"loglens/internal/testutil"
)

// injectHeartbeatAndWait injects a heartbeat and waits until the pump has
// pulled it off the bus and handed it to the engine: a heartbeat queues a
// copy to every partition, so every entry of the engine's mark moves.
// Drain's bus-lag phase alone cannot see this: offsets advance when the
// pump polls, before the heartbeat hook runs, so a Drain racing the hook
// could observe lag 0 with the heartbeat still unforwarded.
func injectHeartbeatAndWait(t *testing.T, p *Pipeline, source string, at time.Time) {
	t.Helper()
	before := p.engine.Mark()
	p.InjectHeartbeat(source, at)
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		for i, n := range p.engine.Mark() {
			if n == before[i] {
				return false
			}
		}
		return true
	}, "injected heartbeat never forwarded to the engine")
}
