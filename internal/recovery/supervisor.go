package recovery

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"loglens/internal/clock"
	"loglens/internal/obs"
)

// SupervisorConfig tunes restart behavior. The zero value is usable.
type SupervisorConfig struct {
	// Clock drives backoff sleeps and the restart window (default wall
	// clock; tests inject clock.Fake for deterministic timelines).
	Clock clock.Clock
	// BackoffBase is the first restart delay (default 10ms); each
	// subsequent restart doubles it up to BackoffMax (default 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the deterministic jitter added to each backoff
	// (up to half the delay), decorrelating sibling restarts.
	Seed int64
	// Window and MaxRestarts define the circuit breaker: more than
	// MaxRestarts (default 5) restarts within Window (default 1m) trips
	// the breaker and the supervisor stops restarting.
	Window      time.Duration
	MaxRestarts int
	// RestartOnError also restarts tasks that return a non-context
	// error (panics always restart; clean returns and context
	// cancellation never do).
	RestartOnError bool
}

func (c *SupervisorConfig) setDefaults() {
	if c.Clock == nil {
		c.Clock = clock.New()
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
}

// splitmix64 is the SplitMix64 finalizer (same mixer the chaos harness
// uses) — deterministic jitter without a shared rand stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Supervisor restarts a dying task with exponential backoff and seeded
// jitter, tripping a circuit breaker after too many restarts in a
// sliding window. One Supervisor guards one task (a partition engine
// loop, the log-manager pump); its Probe plugs into the obs health
// registry so a restart storm degrades /readyz before the breaker takes
// the component down.
type Supervisor struct {
	name   string
	cfg    SupervisorConfig
	events *obs.FlightRecorder // nil until Instrument

	mu       sync.Mutex
	recent   []time.Time // restart times within the window
	restarts uint64      // lifetime restarts
	lastErr  string

	tripped atomic.Bool
	running atomic.Bool
}

// NewSupervisor builds a supervisor for the named component.
func NewSupervisor(name string, cfg SupervisorConfig) *Supervisor {
	cfg.setDefaults()
	return &Supervisor{name: name, cfg: cfg}
}

// Instrument records the supervisor's worker-crash and restart events in
// o's flight recorder. Call it before Run.
func (s *Supervisor) Instrument(o *obs.Ops) { s.events = o.Events }

// Run executes task, restarting it after panics (and after errors when
// RestartOnError is set) until the context is cancelled, the task
// returns cleanly, or the circuit breaker trips. Run returns the task's
// final error (nil after a clean return; the last failure once the
// breaker is open).
func (s *Supervisor) Run(ctx context.Context, task func(ctx context.Context) error) error {
	s.running.Store(true)
	defer s.running.Store(false)
	for attempt := uint64(0); ; attempt++ {
		err, panicked := s.invoke(ctx, task)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !panicked && (err == nil || !s.cfg.RestartOnError) {
			return err
		}

		// The task died. Record the restart and consult the breaker.
		now := s.cfg.Clock.Now()
		s.mu.Lock()
		s.restarts++
		s.lastErr = fmt.Sprint(err)
		keep := s.recent[:0]
		for _, t := range s.recent {
			if now.Sub(t) < s.cfg.Window {
				keep = append(keep, t)
			}
		}
		s.recent = append(keep, now)
		windowCount := len(s.recent)
		s.mu.Unlock()

		if windowCount > s.cfg.MaxRestarts {
			s.tripped.Store(true)
			s.events.Record(obs.EventWorkerCrash, s.name,
				fmt.Sprintf("circuit breaker open after %d restarts in %v", windowCount, s.cfg.Window), int64(windowCount))
			return fmt.Errorf("recovery: %s: circuit breaker open after %d restarts in %v (last: %v)",
				s.name, windowCount, s.cfg.Window, err)
		}
		delay := s.backoff(attempt)
		s.events.Record(obs.EventWorkerCrash, s.name,
			fmt.Sprintf("restarting after %v (attempt %d): %v", delay, attempt+1, err), int64(attempt+1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.cfg.Clock.After(delay):
		}
	}
}

// invoke runs one attempt, containing panics.
func (s *Supervisor) invoke(ctx context.Context, task func(ctx context.Context) error) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery: %s panicked: %v", s.name, r)
			panicked = true
		}
	}()
	return task(ctx), false
}

// backoff computes the delay before restart attempt (0-based):
// exponential from BackoffBase capped at BackoffMax, plus seeded jitter
// of up to half the delay.
func (s *Supervisor) backoff(attempt uint64) time.Duration {
	d := s.cfg.BackoffBase
	for i := uint64(0); i < attempt && d < s.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	if d > 1 {
		jitter := time.Duration(splitmix64(uint64(s.cfg.Seed)^attempt) % uint64(d/2+1))
		d += jitter
	}
	return d
}

// Tripped reports whether the circuit breaker is open.
func (s *Supervisor) Tripped() bool { return s.tripped.Load() }

// Restarts returns the lifetime restart count.
func (s *Supervisor) Restarts() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// Probe reports the supervisor's health: Healthy with no recent
// restarts, Degraded while restarts are occurring inside the window,
// Unhealthy once the breaker is open.
func (s *Supervisor) Probe() obs.ProbeResult {
	if s.tripped.Load() {
		s.mu.Lock()
		last := s.lastErr
		s.mu.Unlock()
		return obs.ProbeResult{Status: obs.Unhealthy,
			Detail: fmt.Sprintf("%s circuit breaker open (last: %s)", s.name, last)}
	}
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	n := 0
	for _, t := range s.recent {
		if now.Sub(t) < s.cfg.Window {
			n++
		}
	}
	total := s.restarts
	s.mu.Unlock()
	if n > 0 {
		return obs.ProbeResult{Status: obs.Degraded,
			Detail: fmt.Sprintf("%s restarted %d times in the last %v", s.name, n, s.cfg.Window)}
	}
	return obs.ProbeResult{Status: obs.Healthy,
		Detail: fmt.Sprintf("%s stable (%d lifetime restarts)", s.name, total)}
}
