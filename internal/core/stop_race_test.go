package core

import (
	"sync"
	"testing"
	"time"

	"loglens/internal/experiments"
	"loglens/internal/testutil"
)

// stopUnderLoad starts a trained pipeline, keeps one agent sending from
// one goroutine, and calls probe in a loop from another until Stop has
// returned. Stop drains the engine while both loops run, so probe races
// the partition workers' last batches.
func stopUnderLoad(t *testing.T, probe func(p *Pipeline)) {
	t.Helper()
	p, err := New(Config{DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Train("m", experiments.ToLogs("s", []string{"tick 1", "tick 2", "tick 3"})); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ag, err := p.Agent("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopped:
					return
				default:
				}
				fn()
			}
		}()
	}
	loop(func() { ag.Send("tick 9") })
	loop(func() { probe(p) })
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return p.Engine().Metrics().Records >= 500
	}, "no agent traffic reached the engine")
	err = p.Stop()
	close(stopped)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// TestInstallModelDuringStop: model installs racing Stop must reach the
// partitions through the engine's barrier while Run drains, never by
// touching a worker's broadcast cache under its feet.
func TestInstallModelDuringStop(t *testing.T) {
	stopUnderLoad(t, func(p *Pipeline) { p.InstallModel(p.Model()) })
}

// TestInspectDuringStop: state inspections racing Stop must read the
// partition state maps at a barrier (or after Run has returned), never
// while a draining worker still writes them.
func TestInspectDuringStop(t *testing.T) {
	stopUnderLoad(t, func(p *Pipeline) {
		p.OpenStates()
		p.PatternCounts()
	})
}
