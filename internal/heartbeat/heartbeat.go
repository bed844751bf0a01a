// Package heartbeat implements the external heartbeat controller (§V-B).
// Stateful anomaly detection is event-driven: if a source goes quiet, open
// states can never be expired by log arrival alone — and wall-clock
// timeouts are wrong because "log time" may run faster or slower than real
// time. The controller therefore tracks, per source, the last embedded log
// timestamp and the observed log-time rate, and periodically emits
// heartbeat messages carrying a synthesized current log time. Detectors
// treat heartbeats as a time signal to enumerate and expire open states.
package heartbeat

import (
	"context"
	"sync"
	"time"

	"loglens/internal/clock"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// Heartbeat is one synthesized time signal for a source.
type Heartbeat struct {
	// Source is the log source the heartbeat speaks for.
	Source string
	// Time is the synthesized current log time of that source.
	Time time.Time
}

// Config tunes the controller.
type Config struct {
	// Interval is how often heartbeats are emitted (default 1s).
	Interval time.Duration

	// ActivityWindow is how long after its last observed log a source
	// is still considered active and worth heartbeating ("if the
	// corresponding log agent is still active"). Default 10 minutes of
	// wall time.
	ActivityWindow time.Duration

	// RateSmoothing is the EWMA coefficient (0..1) applied to new
	// log-time-rate observations. Default 0.3.
	RateSmoothing float64
}

func (c *Config) setDefaults() {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.ActivityWindow == 0 {
		c.ActivityWindow = 10 * time.Minute
	}
	if c.RateSmoothing == 0 {
		c.RateSmoothing = 0.3
	}
}

type sourceState struct {
	lastLogTime  time.Time // embedded timestamp of the last observed log
	lastWallTime time.Time // wall clock when it was observed
	rate         float64   // log-seconds per wall-second (EWMA)
	hasRate      bool
}

// Controller synthesizes per-source heartbeats. It is safe for concurrent
// use.
type Controller struct {
	cfg     Config
	mu      sync.Mutex
	sources map[string]*sourceState
	clk     clock.Clock // injectable clock for tests, chaos, log replay

	observations *metrics.Counter
	emitted      *metrics.Counter
	tracked      *metrics.Gauge

	spans    *obs.SpanRecorder
	events   *obs.FlightRecorder
	sweepTid int
}

// New constructs a Controller.
func New(cfg Config) *Controller {
	cfg.setDefaults()
	return &Controller{
		cfg:     cfg,
		sources: make(map[string]*sourceState),
		clk:     clock.New(),
	}
}

// SetClock injects a wall clock, for deterministic tests and log replay.
// Set it before Run.
func (c *Controller) SetClock(clk clock.Clock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clk = clk
}

func (c *Controller) clock() clock.Clock {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clk
}

// Instrument attaches the ops plane: observations fed in, heartbeats
// synthesized, and the tracked-source gauge go to its registry; each
// Tick sweep becomes a span on its own logical thread, and forgetting a
// silent source records a flight-recorder event. Call before Run.
func (c *Controller) Instrument(o *obs.Ops) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observations = o.Metrics.Counter("heartbeat_observations_total")
	c.emitted = o.Metrics.Counter("heartbeat_emitted_total")
	c.tracked = o.Metrics.Gauge("heartbeat_sources")
	c.spans = o.Spans
	c.events = o.Events
	c.sweepTid = c.spans.Thread("heartbeat sweep")
}

// Staleness reports, per tracked source, how long it has been since the
// last observation on the controller's wall clock — the signal the
// heartbeat-staleness health probe thresholds against.
func (c *Controller) Staleness() map[string]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Duration, len(c.sources))
	wall := c.clk.Now()
	for source, st := range c.sources {
		out[source] = wall.Sub(st.lastWallTime)
	}
	return out
}

// Observe records one log's embedded timestamp for a source. Call it as
// logs flow through the log manager; it keeps the rate estimate fresh.
func (c *Controller) Observe(source string, logTime time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wall := c.clk.Now()
	if c.observations != nil {
		c.observations.Inc()
	}
	st, ok := c.sources[source]
	if !ok {
		c.sources[source] = &sourceState{lastLogTime: logTime, lastWallTime: wall}
		if c.tracked != nil {
			c.tracked.Set(int64(len(c.sources)))
		}
		return
	}
	wallDelta := wall.Sub(st.lastWallTime).Seconds()
	logDelta := logTime.Sub(st.lastLogTime).Seconds()
	if wallDelta > 0 && logDelta >= 0 {
		obs := logDelta / wallDelta
		if st.hasRate {
			a := c.cfg.RateSmoothing
			st.rate = a*obs + (1-a)*st.rate
		} else {
			st.rate = obs
			st.hasRate = true
		}
	}
	if logTime.After(st.lastLogTime) {
		st.lastLogTime = logTime
	}
	st.lastWallTime = wall
}

// Sources returns the currently tracked source names.
func (c *Controller) Sources() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.sources))
	for s := range c.sources {
		out = append(out, s)
	}
	return out
}

// Tick synthesizes one heartbeat per active source: the source's last log
// time advanced by its observed rate times the wall time elapsed since.
// Sources silent past the activity window are skipped (their agents are
// gone) and eventually forgotten.
func (c *Controller) Tick() []Heartbeat {
	c.mu.Lock()
	defer c.mu.Unlock()
	sweep := c.spans.Start("heartbeat", "sweep", c.sweepTid)
	defer sweep.End()
	wall := c.clk.Now()
	var out []Heartbeat
	for source, st := range c.sources {
		idle := wall.Sub(st.lastWallTime)
		if idle > c.cfg.ActivityWindow {
			delete(c.sources, source)
			c.events.Record(obs.EventSourceForgotten, source,
				"silent past activity window", int64(idle/time.Second))
			continue
		}
		rate := st.rate
		if !st.hasRate {
			// A single observation gives no rate; assume log time
			// tracks wall time.
			rate = 1.0
		}
		synth := st.lastLogTime.Add(time.Duration(idle.Seconds() * rate * float64(time.Second)))
		out = append(out, Heartbeat{Source: source, Time: synth})
	}
	if c.emitted != nil {
		c.emitted.Add(uint64(len(out)))
	}
	if c.tracked != nil {
		c.tracked.Set(int64(len(c.sources)))
	}
	return out
}

// Run emits heartbeats on the configured interval until the context is
// done, calling emit for every synthesized heartbeat. It blocks; run it in
// its own goroutine.
func (c *Controller) Run(ctx context.Context, emit func(Heartbeat)) {
	ticker := c.clock().NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C():
			for _, hb := range c.Tick() {
				emit(hb)
			}
		}
	}
}
