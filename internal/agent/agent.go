// Package agent implements the log collection agent of §II: a daemon that
// collects logs from a source and ships them to the log manager over the
// bus. It also provides the replay agent used throughout the evaluation
// ("for replaying log data, we have developed an agent, which emulates the
// log streaming behavior", §VI).
package agent

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"loglens/internal/bus"
	"loglens/internal/clock"
	"loglens/internal/preprocess"
)

// LogsTopic is the bus topic agents publish raw logs to.
const LogsTopic = "logs"

// HeaderSource and HeaderSeq are the message headers agents attach.
// HeaderHeartbeat tags heartbeat messages, which travel on the same data
// channel as logs ("this external message is sent to the same data channel
// (where logs arrive) with a specific tag", §V-B); its value is the
// synthesized log time in RFC3339Nano.
const (
	HeaderSource    = "source"
	HeaderSeq       = "seq"
	HeaderHeartbeat = "heartbeat"
)

// Config tunes an Agent.
type Config struct {
	// Source identifies the log origin; the log manager routes and
	// stores by it.
	Source string

	// RatePerSec throttles emission (0 = unthrottled). The replay
	// agent uses this to emulate a live stream's arrival rate.
	RatePerSec int

	// TopicPartitions is the partition count used when declaring the
	// logs topic (default 4).
	TopicPartitions int

	// Clock paces rate limiting and timestamp-paced replay (default the
	// wall clock). A fake clock replays hours of log time in
	// milliseconds, deterministically.
	Clock clock.Clock
}

// Agent ships logs from a reader (file, pipe, generator) to the bus.
type Agent struct {
	cfg  Config
	bus  bus.Broker
	seq  uint64
	sent uint64
}

// New constructs an Agent and declares the logs topic.
func New(b bus.Broker, cfg Config) (*Agent, error) {
	if cfg.Source == "" {
		return nil, fmt.Errorf("agent: source must be set")
	}
	parts := cfg.TopicPartitions
	if parts <= 0 {
		parts = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	if err := b.CreateTopic(LogsTopic, parts); err != nil {
		return nil, err
	}
	return &Agent{cfg: cfg, bus: b}, nil
}

// Sent returns the number of log lines shipped.
func (a *Agent) Sent() uint64 { return a.sent }

// Send ships one raw log line.
func (a *Agent) Send(line string) error {
	a.seq++
	_, _, err := a.bus.Publish(LogsTopic, a.cfg.Source, []byte(line), map[string]string{
		HeaderSource: a.cfg.Source,
		HeaderSeq:    strconv.FormatUint(a.seq, 10),
	})
	if err != nil {
		return err
	}
	a.sent++
	return nil
}

// Run streams every line of r to the bus, honouring the configured rate,
// until EOF or context cancellation. It returns the number of lines
// shipped.
func (a *Agent) Run(ctx context.Context, r io.Reader) (uint64, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var limiter clock.Ticker
	if a.cfg.RatePerSec > 0 {
		limiter = a.cfg.Clock.NewTicker(time.Second / time.Duration(a.cfg.RatePerSec))
		defer limiter.Stop()
	}

	var n uint64
	for scanner.Scan() {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if limiter != nil {
			select {
			case <-limiter.C():
			case <-ctx.Done():
				return n, ctx.Err()
			}
		}
		line := scanner.Text()
		if line == "" {
			continue
		}
		if err := a.Send(line); err != nil {
			return n, err
		}
		n++
	}
	if err := scanner.Err(); err != nil {
		return n, fmt.Errorf("agent: scan: %w", err)
	}
	return n, nil
}

// ReplayTimed ships lines pacing them by their embedded timestamps scaled
// by speedup (2.0 = twice real time; the paper's replay agent "emulates
// the log streaming behavior", §VI, including the log-time rate the
// heartbeat controller estimates). Lines without a recognizable timestamp
// ship immediately after their predecessor. It returns the number of
// lines shipped.
func (a *Agent) ReplayTimed(ctx context.Context, lines []string, speedup float64, pp *preprocess.Preprocessor) (uint64, error) {
	if speedup <= 0 {
		speedup = 1
	}
	if pp == nil {
		pp = preprocess.New(nil, nil)
	}
	var n uint64
	var lastLog time.Time
	for _, line := range lines {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if line == "" {
			continue
		}
		if r := pp.Process(line); r.HasTime {
			if !lastLog.IsZero() && r.Time.After(lastLog) {
				delay := time.Duration(float64(r.Time.Sub(lastLog)) / speedup)
				select {
				case <-a.cfg.Clock.After(delay):
				case <-ctx.Done():
					return n, ctx.Err()
				}
			}
			if r.Time.After(lastLog) {
				lastLog = r.Time
			}
		}
		if err := a.Send(line); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Replay ships a pre-materialized line slice (the dataset replay used in
// the evaluation harness).
func (a *Agent) Replay(ctx context.Context, lines []string) (uint64, error) {
	var limiter clock.Ticker
	if a.cfg.RatePerSec > 0 {
		limiter = a.cfg.Clock.NewTicker(time.Second / time.Duration(a.cfg.RatePerSec))
		defer limiter.Stop()
	}
	var n uint64
	for _, line := range lines {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if limiter != nil {
			select {
			case <-limiter.C():
			case <-ctx.Done():
				return n, ctx.Err()
			}
		}
		if line == "" {
			continue
		}
		if err := a.Send(line); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
