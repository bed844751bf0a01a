// Package seqdetect implements the stateful log-sequence anomaly detector
// (§IV-B): parsed logs are grouped by their discovered event ID, ordered
// by log time, and validated against the learned automata rules. Events
// violating the rules produce the Table II anomaly types. Open states are
// expired — and missing-end-state anomalies reported in time — when the
// external heartbeat controller advances log time (§V-B).
//
// The detector never reads a wall clock: every temporal decision (duration
// windows, expiry) is a function of the log times and heartbeat times fed
// to Process and HeartbeatFor. That makes it deterministic by construction
// under the internal/clock fake-clock harness — drive the heartbeat
// controller on a clock.Fake and the whole expiry pipeline replays
// identically; see internal/chaos for the seeded scenario suite.
package seqdetect

import (
	"fmt"
	"sort"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/automata"
	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/obs"
)

// Config tunes the detector.
type Config struct {
	// DurationSlack widens the learned duration window by this fraction
	// before flagging violations, absorbing training-window sampling
	// noise. Default 0.1 (10%).
	DurationSlack float64

	// ExpiryFactor scales the learned max duration when deciding that
	// an open state has expired (its end is never coming). Default 2.0:
	// an event twice as old as the slowest training event is dead.
	ExpiryFactor float64
}

func (c *Config) setDefaults() {
	if c.DurationSlack == 0 {
		c.DurationSlack = 0.1
	}
	if c.ExpiryFactor == 0 {
		c.ExpiryFactor = 2.0
	}
}

type stateKey struct {
	autoID  int
	eventID string
}

// openEvent is the in-memory state of one (automaton, event) pair.
type openEvent struct {
	auto         *automata.Automaton
	eventID      string
	source       string
	begin        time.Time
	last         time.Time
	counts       map[int]int
	logs         []logtypes.Log
	firstPattern int
	missingBegin bool
}

// Stats counts detector activity.
type Stats struct {
	// LogsProcessed counts tracked logs (pattern had an ID field).
	LogsProcessed uint64
	// LogsSkipped counts logs whose pattern has no ID field or belongs
	// to no automaton.
	LogsSkipped uint64
	// EventsClosed counts events that reached an end state.
	EventsClosed uint64
	// EventsExpired counts events closed by heartbeat expiry.
	EventsExpired uint64
	// Anomalies counts emitted anomaly records.
	Anomalies uint64
}

// Detector is the stateful log-sequence anomaly detector. It is NOT safe
// for concurrent use; the streaming engine runs one per partition.
type Detector struct {
	model   *automata.Model
	cfg     Config
	states  map[stateKey]*openEvent
	byEvent map[string]map[int]*openEvent // eventID -> autoID -> state
	// byPattern caches Model.AutomataFor per pattern ID: the model scan
	// allocates its result slice, and the hot path asks about the same
	// few patterns on every line. Reset on SetModel.
	byPattern map[int][]*automata.Automaton
	stats     Stats
	instr     *detectInstr
	events    *obs.FlightRecorder
}

// detectInstr mirrors detector activity into a shared registry. Several
// detectors (one per stream partition) share the same handles: counters
// aggregate via atomic adds, and the open-states gauge is maintained by
// delta so the total spans all partitions.
type detectInstr struct {
	transitions *metrics.Counter
	skipped     *metrics.Counter
	closed      *metrics.Counter
	expired     *metrics.Counter
	anomalies   *metrics.Counter
	open        *metrics.Gauge
}

// New constructs a Detector over the model.
func New(model *automata.Model, cfg Config) *Detector {
	cfg.setDefaults()
	return &Detector{
		model:     model,
		cfg:       cfg,
		states:    make(map[stateKey]*openEvent),
		byEvent:   make(map[string]map[int]*openEvent),
		byPattern: make(map[int][]*automata.Automaton),
	}
}

// automataFor resolves (and caches) the automata containing a pattern.
// Caching nil results matters too: untracked patterns hit the skip path
// on every line.
func (d *Detector) automataFor(patternID int) []*automata.Automaton {
	autos, ok := d.byPattern[patternID]
	if !ok {
		autos = d.model.AutomataFor(patternID)
		d.byPattern[patternID] = autos
	}
	return autos
}

// Model returns the active model.
func (d *Detector) Model() *automata.Model { return d.model }

// Instrument mirrors the detector's counters into the ops plane's
// registry under the seqdetect_* names and records heartbeat expiries in
// its flight recorder. Call before feeding logs; the open-states gauge
// tracks deltas from the moment of instrumentation.
func (d *Detector) Instrument(o *obs.Ops) {
	reg := o.Metrics
	d.instr = &detectInstr{
		transitions: reg.Counter("seqdetect_transitions_total"),
		skipped:     reg.Counter("seqdetect_skipped_total"),
		closed:      reg.Counter("seqdetect_events_closed_total"),
		expired:     reg.Counter("seqdetect_events_expired_total"),
		anomalies:   reg.Counter("seqdetect_anomalies_total"),
		open:        reg.Gauge("seqdetect_open_states"),
	}
	d.events = o.Events
}

// SetModel swaps in an updated model without losing unrelated state (§V-A:
// model updates must preserve states). Open states whose automaton no
// longer exists in the new model are dropped silently; surviving automata
// keep their in-flight events.
func (d *Detector) SetModel(m *automata.Model) {
	d.model = m
	d.byPattern = make(map[int][]*automata.Automaton)
	for key, st := range d.states {
		a, ok := m.Get(key.autoID)
		if !ok {
			d.drop(st)
			continue
		}
		st.auto = a
	}
}

// OpenStates returns the number of open (automaton, event) states held in
// memory.
func (d *Detector) OpenStates() int { return len(d.states) }

// Stats returns a snapshot of the activity counters.
func (d *Detector) Stats() Stats { return d.stats }

// Process feeds one parsed log to the detector, returning any anomalies
// the log makes decidable (events it closes).
func (d *Detector) Process(l *logtypes.ParsedLog) []anomaly.Record {
	eventID, ok := d.model.EventID(l)
	if !ok || eventID == "" {
		d.skip()
		return nil
	}
	autos := d.automataFor(l.PatternID)
	if len(autos) == 0 {
		d.skip()
		return nil
	}
	d.stats.LogsProcessed++
	if d.instr != nil {
		d.instr.transitions.Inc()
	}

	now := l.EventTime()
	closing := false
	for _, a := range autos {
		key := stateKey{autoID: a.ID, eventID: eventID}
		st, open := d.states[key]
		if !open {
			st = &openEvent{
				auto:         a,
				eventID:      eventID,
				source:       l.Source,
				begin:        now,
				counts:       make(map[int]int),
				firstPattern: l.PatternID,
			}
			if l.PatternID != a.BeginPattern {
				// The event's logs started mid-workflow.
				st.missingBegin = true
			}
			d.states[key] = st
			if d.instr != nil {
				d.instr.open.Add(1)
			}
			ev := d.byEvent[eventID]
			if ev == nil {
				ev = make(map[int]*openEvent)
				d.byEvent[eventID] = ev
			}
			ev[a.ID] = st
		}
		st.counts[l.PatternID]++
		st.last = now
		st.logs = append(st.logs, l.Log)
		if l.PatternID == a.EndPattern {
			closing = true
		}
	}
	if !closing {
		return nil
	}
	return d.closeEvent(eventID, now)
}

// skip accounts a log the detector cannot track.
func (d *Detector) skip() {
	d.stats.LogsSkipped++
	if d.instr != nil {
		d.instr.skipped.Inc()
	}
}

// closeEvent evaluates every open automaton state of the event once an end
// state has been reached. If the trace conforms cleanly to at least one
// automaton, the event is normal (overlapping automata may have opened
// speculative siblings); otherwise the best-matching automaton's
// violations produce one anomaly record. All states of the event are
// released either way.
func (d *Detector) closeEvent(eventID string, now time.Time) []anomaly.Record {
	ev := d.byEvent[eventID]
	if len(ev) == 0 {
		return nil
	}
	// Only automata whose end state has been reached are decidable;
	// keep others open (they may be mid-flight workflows sharing the
	// event ID prefix).
	var decidable []*openEvent
	for _, st := range ev {
		if st.counts[st.auto.EndPattern] > 0 {
			decidable = append(decidable, st)
		}
	}
	if len(decidable) == 0 {
		return nil
	}
	sort.Slice(decidable, func(i, j int) bool { return decidable[i].auto.ID < decidable[j].auto.ID })

	var best *openEvent
	var bestViolations []violation
	for _, st := range decidable {
		v := d.evaluate(st, now, false)
		if len(v) == 0 {
			// Clean close: drop everything for this event.
			d.stats.EventsClosed++
			if d.instr != nil {
				d.instr.closed.Inc()
			}
			d.dropEvent(eventID)
			return nil
		}
		if best == nil || len(v) < len(bestViolations) {
			best, bestViolations = st, v
		}
	}
	st := best
	d.stats.EventsClosed++
	if d.instr != nil {
		d.instr.closed.Inc()
	}
	d.dropEvent(eventID)
	rec := d.record(st, bestViolations, now)
	d.stats.Anomalies++
	if d.instr != nil {
		d.instr.anomalies.Inc()
	}
	return []anomaly.Record{rec}
}

// Heartbeat advances log time from the external heartbeat controller:
// open states older than the expiry window are closed as missing-end
// anomalies (§V-B "Expedited Anomaly Detection"). The heartbeat's
// timestamp is synthesized from the source's log rate, so expiry works
// even when no logs flow. A non-empty source restricts expiry to that
// source's states (the controller emits one heartbeat per log source).
func (d *Detector) Heartbeat(now time.Time) []anomaly.Record {
	return d.HeartbeatFor("", now)
}

// HeartbeatFor is Heartbeat restricted to one log source ("" = all).
func (d *Detector) HeartbeatFor(source string, now time.Time) []anomaly.Record {
	var out []anomaly.Record
	// Find events where every open automaton state has expired.
	expiredEvents := make([]string, 0)
	for eventID, ev := range d.byEvent {
		allExpired := len(ev) > 0
		for _, st := range ev {
			if source != "" && st.source != source {
				allExpired = false
				break
			}
			if !d.expired(st, now) {
				allExpired = false
				break
			}
		}
		if allExpired {
			expiredEvents = append(expiredEvents, eventID)
		}
	}
	sort.Strings(expiredEvents)
	for _, eventID := range expiredEvents {
		ev := d.byEvent[eventID]
		// Report against the automaton that saw the most logs (the
		// closest workflow), tie broken by ID.
		var best *openEvent
		for _, st := range ev {
			if best == nil || len(st.logs) > len(best.logs) ||
				(len(st.logs) == len(best.logs) && st.auto.ID < best.auto.ID) {
				best = st
			}
		}
		violations := d.evaluate(best, now, true)
		d.stats.EventsExpired++
		if d.instr != nil {
			d.instr.expired.Inc()
		}
		d.events.Record(obs.EventHeartbeatExpiry, best.source,
			"event "+eventID+" expired by heartbeat", int64(best.auto.ID))
		d.dropEvent(eventID)
		// The anomaly is timestamped at the event's last observed log,
		// not at the heartbeat: that is when the event went quiet, and
		// it keeps burst structure intact for cluster analysis
		// (Figure 6).
		rec := d.record(best, violations, best.last)
		d.stats.Anomalies++
		if d.instr != nil {
			d.instr.anomalies.Inc()
		}
		out = append(out, rec)
	}
	return out
}

// Flush closes every open state unconditionally (end of stream),
// reporting missing-end anomalies. Equivalent to a final heartbeat
// infinitely far in the future.
func (d *Detector) Flush() []anomaly.Record {
	var far time.Time
	for _, st := range d.states {
		if st.last.After(far) {
			far = st.last
		}
	}
	return d.Heartbeat(far.Add(1000 * time.Hour))
}

type violation struct {
	typ    anomaly.Type
	reason string
}

// evaluate checks an event trace against its automaton's rules, returning
// the violations ordered by severity (missing begin/end, then missing
// intermediate states, then occurrence bounds, then duration).
func (d *Detector) evaluate(st *openEvent, now time.Time, expiry bool) []violation {
	a := st.auto
	var v []violation
	if expiry {
		v = append(v, violation{anomaly.MissingEnd, fmt.Sprintf(
			"event %q expired after %v without reaching end state (pattern %d)",
			st.eventID, now.Sub(st.begin), a.EndPattern)})
	}
	if st.missingBegin {
		v = append(v, violation{anomaly.MissingBegin, fmt.Sprintf(
			"event %q started at pattern %d, not the begin state (pattern %d)",
			st.eventID, st.firstPattern, a.BeginPattern)})
	}
	for _, s := range a.States {
		c := st.counts[s.PatternID]
		isBegin := s.PatternID == a.BeginPattern
		isEnd := s.PatternID == a.EndPattern
		if c == 0 {
			if isBegin || (isEnd && expiry) {
				continue // already reported as missing begin/end
			}
			if s.MinOcc > 0 && !isEnd {
				v = append(v, violation{anomaly.MissingIntermediate, fmt.Sprintf(
					"event %q missing intermediate state (pattern %d)", st.eventID, s.PatternID)})
			}
			continue
		}
		if c < s.MinOcc || c > s.MaxOcc {
			v = append(v, violation{anomaly.OccurrenceViolation, fmt.Sprintf(
				"event %q state (pattern %d) occurred %d times, learned bounds [%d,%d]",
				st.eventID, s.PatternID, c, s.MinOcc, s.MaxOcc)})
		}
	}
	if !expiry && !st.missingBegin {
		dur := st.last.Sub(st.begin)
		lo := time.Duration(float64(a.MinDuration) * (1 - d.cfg.DurationSlack))
		hi := time.Duration(float64(a.MaxDuration) * (1 + d.cfg.DurationSlack))
		if dur < lo || dur > hi {
			v = append(v, violation{anomaly.DurationViolation, fmt.Sprintf(
				"event %q took %v, learned bounds [%v,%v]", st.eventID, dur, a.MinDuration, a.MaxDuration)})
		}
	}
	return v
}

// expired reports whether an open state's end can no longer arrive by now.
func (d *Detector) expired(st *openEvent, now time.Time) bool {
	window := time.Duration(float64(st.auto.MaxDuration) * d.cfg.ExpiryFactor)
	if min := 1 * time.Second; window < min {
		window = min
	}
	return now.Sub(st.begin) > window
}

// record converts the violations of one event into a single anomaly
// record typed by the most severe violation, with all reasons joined.
func (d *Detector) record(st *openEvent, violations []violation, now time.Time) anomaly.Record {
	typ := anomaly.DurationViolation
	reasons := make([]string, 0, len(violations))
	for _, v := range violations {
		if rank(v.typ) < rank(typ) {
			typ = v.typ
		}
		reasons = append(reasons, v.reason)
	}
	reason := ""
	for i, r := range reasons {
		if i > 0 {
			reason += "; "
		}
		reason += r
	}
	return anomaly.Record{
		Type:        typ,
		Severity:    severityOf(typ),
		Reason:      reason,
		Timestamp:   now,
		Source:      st.source,
		EventID:     st.eventID,
		AutomatonID: st.auto.ID,
		Logs:        append([]logtypes.Log(nil), st.logs...),
	}
}

func rank(t anomaly.Type) int {
	switch t {
	case anomaly.MissingEnd:
		return 0
	case anomaly.MissingBegin:
		return 1
	case anomaly.MissingIntermediate:
		return 2
	case anomaly.OccurrenceViolation:
		return 3
	default:
		return 4
	}
}

func severityOf(t anomaly.Type) anomaly.Severity {
	switch t {
	case anomaly.MissingEnd, anomaly.MissingBegin:
		return anomaly.Critical
	case anomaly.MissingIntermediate, anomaly.OccurrenceViolation:
		return anomaly.Warning
	default:
		return anomaly.Info
	}
}

// dropEvent releases every open state of an event.
func (d *Detector) dropEvent(eventID string) {
	n := len(d.byEvent[eventID])
	for autoID := range d.byEvent[eventID] {
		delete(d.states, stateKey{autoID: autoID, eventID: eventID})
	}
	delete(d.byEvent, eventID)
	if d.instr != nil && n > 0 {
		d.instr.open.Add(int64(-n))
	}
}

// drop releases one state.
func (d *Detector) drop(st *openEvent) {
	delete(d.states, stateKey{autoID: st.auto.ID, eventID: st.eventID})
	ev := d.byEvent[st.eventID]
	delete(ev, st.auto.ID)
	if len(ev) == 0 {
		delete(d.byEvent, st.eventID)
	}
	if d.instr != nil {
		d.instr.open.Add(-1)
	}
}
