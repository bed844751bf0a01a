package recovery

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"loglens/internal/clock"
	"loglens/internal/obs"
)

// pump advances the fake clock whenever the supervisor blocks in a
// backoff sleep, until stop is closed.
func pump(fc *clock.Fake, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if fc.Waiters() > 0 {
			fc.Advance(5 * time.Second)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSupervisorRestartsUntilSuccess(t *testing.T) {
	fc := clock.NewFake()
	s := NewSupervisor("worker", SupervisorConfig{Clock: fc, Seed: 1})
	stop := make(chan struct{})
	defer close(stop)
	go pump(fc, stop)

	var runs atomic.Int64
	err := s.Run(context.Background(), func(ctx context.Context) error {
		if runs.Add(1) < 3 {
			panic("boom")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil after recovery", err)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("task ran %d times, want 3", got)
	}
	if s.Restarts() != 2 {
		t.Errorf("Restarts = %d, want 2", s.Restarts())
	}
	if s.Tripped() {
		t.Error("breaker tripped on a recovering task")
	}
}

func TestSupervisorBreakerTripsAfterRestartStorm(t *testing.T) {
	fc := clock.NewFake()
	rec := obs.NewFlightRecorder(fc, 64)
	s := NewSupervisor("worker", SupervisorConfig{
		Clock: fc, MaxRestarts: 2, Window: time.Hour,
	})
	s.Instrument(&obs.Ops{Events: rec})
	stop := make(chan struct{})
	defer close(stop)
	go pump(fc, stop)

	var runs atomic.Int64
	err := s.Run(context.Background(), func(ctx context.Context) error {
		runs.Add(1)
		panic("always")
	})
	if err == nil {
		t.Fatal("Run must return the breaker error")
	}
	if !s.Tripped() {
		t.Error("breaker not tripped")
	}
	// MaxRestarts=2: restarts 1 and 2 are tolerated, the 3rd trips.
	if got := runs.Load(); got != 3 {
		t.Errorf("task ran %d times, want 3", got)
	}
	if p := s.Probe(); p.Status != obs.Unhealthy {
		t.Errorf("probe after trip = %+v, want Unhealthy", p)
	}
	if evs := rec.Events(obs.EventQuery{Type: obs.EventWorkerCrash}); len(evs) == 0 {
		t.Error("no worker-crash events recorded")
	}
}

func TestSupervisorErrorReturnWithoutRestartOnError(t *testing.T) {
	s := NewSupervisor("worker", SupervisorConfig{Clock: clock.NewFake()})
	want := errors.New("fatal config error")
	var runs atomic.Int64
	err := s.Run(context.Background(), func(ctx context.Context) error {
		runs.Add(1)
		return want
	})
	if !errors.Is(err, want) {
		t.Errorf("Run = %v, want the task error", err)
	}
	if runs.Load() != 1 {
		t.Errorf("task restarted on error without RestartOnError (%d runs)", runs.Load())
	}
}

func TestSupervisorRestartOnError(t *testing.T) {
	fc := clock.NewFake()
	s := NewSupervisor("worker", SupervisorConfig{Clock: fc, RestartOnError: true})
	stop := make(chan struct{})
	defer close(stop)
	go pump(fc, stop)

	var runs atomic.Int64
	err := s.Run(context.Background(), func(ctx context.Context) error {
		if runs.Add(1) < 2 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || runs.Load() != 2 {
		t.Errorf("Run = %v after %d runs; want nil after 2", err, runs.Load())
	}
}

func TestSupervisorContextCancelStopsCleanly(t *testing.T) {
	fc := clock.NewFake()
	s := NewSupervisor("worker", SupervisorConfig{Clock: fc})
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		done <- s.Run(ctx, func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		})
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if s.Restarts() != 0 {
		t.Errorf("cancellation counted as a restart (%d)", s.Restarts())
	}
}

func TestSupervisorBackoffExponentialCappedDeterministic(t *testing.T) {
	s := NewSupervisor("worker", SupervisorConfig{
		Clock: clock.NewFake(), BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond, Seed: 42,
	})
	prevBase := time.Duration(0)
	for attempt := uint64(0); attempt < 6; attempt++ {
		d := s.backoff(attempt)
		base := 10 * time.Millisecond << attempt
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if d < base || d > base+base/2 {
			t.Errorf("backoff(%d) = %v, want in [%v, %v]", attempt, d, base, base+base/2)
		}
		if d2 := s.backoff(attempt); d2 != d {
			t.Errorf("backoff(%d) not deterministic: %v vs %v", attempt, d, d2)
		}
		if base > prevBase {
			prevBase = base
		}
	}
}

func TestSupervisorProbeDegradedAfterRecentRestart(t *testing.T) {
	fc := clock.NewFake()
	s := NewSupervisor("worker", SupervisorConfig{Clock: fc, Window: time.Minute})
	stop := make(chan struct{})
	defer close(stop)
	go pump(fc, stop)

	var runs atomic.Int64
	if err := s.Run(context.Background(), func(ctx context.Context) error {
		if runs.Add(1) < 2 {
			panic("once")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// pump advances 5s per sleep, well inside the 1m window.
	if p := s.Probe(); p.Status != obs.Degraded {
		t.Errorf("probe right after a restart = %+v, want Degraded", p)
	}
	fc.Advance(2 * time.Minute)
	if p := s.Probe(); p.Status != obs.Healthy {
		t.Errorf("probe after window passed = %+v, want Healthy", p)
	}
}
