package stream

import (
	"context"
	"fmt"
	"testing"
	"time"

	"loglens/internal/testutil"
)

// TestRunningAndBroadcastVersions covers the two engine introspection
// hooks the ops-plane probes read: Running flips with the micro-batch
// loop's lifetime, and BroadcastVersions reports driver-vs-worker version
// skew around a rebroadcast.
func TestRunningAndBroadcastVersions(t *testing.T) {
	e := New(Config{Partitions: 2}, func(ctx *Context, rec Record) []any {
		v, _ := ctx.Broadcast("model")
		return []any{v}
	})
	if e.Running() {
		t.Fatal("Running() true before Run")
	}
	e.Broadcast("model", "v1")
	if driver, workers := e.BroadcastVersions("model"); driver != 1 || len(workers) != 2 ||
		workers[0] != 0 || workers[1] != 0 {
		t.Fatalf("pre-run versions: driver %d, workers %v", driver, workers)
	}

	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	testutil.WaitUntil(t, 5*time.Second, func() bool { return e.Running() }, "engine never reported running")

	// Route a record to every partition so each worker pulls the
	// broadcast at least once, then the skew must read zero.
	for i := 0; i < 20; i++ {
		e.Send(Record{Key: fmt.Sprintf("k%d", i)})
	}
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		driver, workers := e.BroadcastVersions("model")
		for _, v := range workers {
			if v != driver {
				return false
			}
		}
		return true
	}, "workers never caught up to the driver version")

	// Two rebroadcasts with no traffic in between: the driver runs
	// ahead; workers hold the version they last pulled.
	e.Broadcast("model", "v2")
	e.Broadcast("model", "v3")
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		driver, _ := e.BroadcastVersions("model")
		return driver == 3
	}, "rebroadcasts never applied")
	if _, workers := e.BroadcastVersions("model"); workers[0] != 1 || workers[1] != 1 {
		t.Fatalf("workers advanced without pulling: %v", workers)
	}

	e.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if e.Running() {
		t.Fatal("Running() true after Run returned")
	}
}
