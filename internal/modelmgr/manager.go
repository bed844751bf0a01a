package modelmgr

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"loglens/internal/clock"
	"loglens/internal/logtypes"
	"loglens/internal/metrics"
	"loglens/internal/obs"
	"loglens/internal/store"
)

// ModelsIndex is the model-storage index name.
const ModelsIndex = "models"

// Manager persists models in the model storage and supports the §II
// workflows: saving freshly built models, loading (possibly expert-edited)
// models back, and periodic relearning from the log storage ("users can
// configure LogLens to automatically instruct model builder every midnight
// to rebuild models using the last seven days logs").
type Manager struct {
	store   *store.Store
	builder *Builder
	clk     clock.Clock

	rebuilds       *metrics.Counter
	rebuildSeconds *metrics.Histogram
	saves          *metrics.Counter
	loads          *metrics.Counter

	events *obs.FlightRecorder
}

// NewManager constructs a Manager over the given storage.
func NewManager(st *store.Store, builder *Builder) *Manager {
	return &Manager{store: st, builder: builder, clk: clock.New()}
}

// SetClock injects the relearn-loop time source (default the wall clock).
// Set it before RelearnLoop starts.
func (mgr *Manager) SetClock(clk clock.Clock) { mgr.clk = clk }

// Instrument mirrors manager activity into reg: rebuild counts and
// durations (measured on the manager's clock), plus save/load counts. Call
// during wiring, before relearning starts.
func (mgr *Manager) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	mgr.rebuilds = reg.Counter("modelmgr_rebuilds_total")
	mgr.rebuildSeconds = reg.Histogram("modelmgr_rebuild_seconds", nil)
	mgr.saves = reg.Counter("modelmgr_saves_total")
	mgr.loads = reg.Counter("modelmgr_loads_total")
}

// SetRecorder installs a flight recorder capturing model-storage
// failures at the source; nil disables.
func (mgr *Manager) SetRecorder(f *obs.FlightRecorder) { mgr.events = f }

// Save stores a model in the model storage under its ID.
func (mgr *Manager) Save(m *Model) error {
	data, err := json.Marshal(m)
	if err != nil {
		mgr.events.Record(obs.EventStorageError, m.ID, "save: "+err.Error(), 0)
		return fmt.Errorf("modelmgr: save %q: %w", m.ID, err)
	}
	mgr.store.Index(ModelsIndex).Put(m.ID, store.Document{
		"id":        m.ID,
		"createdAt": m.CreatedAt,
		"patterns":  m.Patterns.Len(),
		"automata":  len(m.Sequence.Automata),
		"body":      string(data),
	})
	if mgr.saves != nil {
		mgr.saves.Inc()
	}
	return nil
}

// Load retrieves a model from the model storage.
func (mgr *Manager) Load(id string) (*Model, error) {
	doc, ok := mgr.store.Index(ModelsIndex).Get(id)
	if !ok {
		mgr.events.Record(obs.EventStorageError, id, "load: model not found", 0)
		return nil, fmt.Errorf("modelmgr: no model %q", id)
	}
	body, _ := doc["body"].(string)
	var m Model
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		mgr.events.Record(obs.EventStorageError, id, "load: "+err.Error(), 0)
		return nil, fmt.Errorf("modelmgr: load %q: %w", id, err)
	}
	if mgr.loads != nil {
		mgr.loads.Inc()
	}
	return &m, nil
}

// Delete removes a model from the model storage.
func (mgr *Manager) Delete(id string) bool {
	return mgr.store.Index(ModelsIndex).Delete(id)
}

// List returns the stored model IDs, newest first.
func (mgr *Manager) List() []string {
	hits := mgr.store.Index(ModelsIndex).Search(store.Query{SortBy: "createdAt", Desc: true})
	out := make([]string, 0, len(hits))
	for _, h := range hits {
		if id, ok := h.Doc["id"].(string); ok {
			out = append(out, id)
		}
	}
	return out
}

// Latest returns the most recently created model.
func (mgr *Manager) Latest() (*Model, error) {
	ids := mgr.List()
	if len(ids) == 0 {
		return nil, fmt.Errorf("modelmgr: model storage is empty")
	}
	return mgr.Load(ids[0])
}

// LogsIndexFor is the log-storage index naming scheme: logs are organized
// by source (§II: the log storage "organizes logs based on the log source
// information").
func LogsIndexFor(source string) string { return "logs-" + source }

// ArchiveDoc is the log-storage document for one log. It is built in the
// form the store keeps — seq as a float64, arrival as its RFC 3339
// string — so PutBatch can keep the map as it is.
func ArchiveDoc(l logtypes.Log) store.Document {
	return store.Document{
		"raw":     l.Raw,
		"seq":     float64(l.Seq),
		"arrival": l.Arrival.Format(time.RFC3339Nano),
		"source":  l.Source,
	}
}

// archivedLog decodes one log-storage document, in the canonical form
// the store returns every document in: a float64 seq and an RFC 3339
// arrival.
func archivedLog(source string, doc store.Document) logtypes.Log {
	raw, _ := doc["raw"].(string)
	seq, _ := doc["seq"].(float64)
	arrival, _ := doc["arrival"].(string)
	l := logtypes.Log{Source: source, Raw: raw, Seq: uint64(seq)}
	l.Arrival, _ = time.Parse(time.RFC3339Nano, arrival)
	return l
}

// Rebuild builds a fresh model for a source from the logs stored since the
// given time, saves it, and returns it — one periodic relearning round
// (handling data drift, §II-A).
func (mgr *Manager) Rebuild(id, source string, since time.Time) (*Model, *BuildReport, error) {
	hits := mgr.store.Index(LogsIndexFor(source)).Search(store.Query{
		RangeField: "arrival",
		RangeMin:   since,
		SortBy:     "seq",
	})
	logs := make([]logtypes.Log, 0, len(hits))
	for _, h := range hits {
		logs = append(logs, archivedLog(source, h.Doc))
	}
	if len(logs) == 0 {
		return nil, nil, fmt.Errorf("modelmgr: rebuild %q: no stored logs for source %q since %v", id, source, since)
	}
	start := mgr.clk.Now()
	m, report, err := mgr.builder.Build(id, logs)
	if err != nil {
		return nil, nil, err
	}
	if err := mgr.Save(m); err != nil {
		return nil, nil, err
	}
	if mgr.rebuilds != nil {
		mgr.rebuilds.Inc()
		mgr.rebuildSeconds.Observe(mgr.clk.Since(start).Seconds())
	}
	return m, report, nil
}

// RelearnLoop rebuilds the model for a source every interval, using the
// logs from the trailing window, and hands each new model to install
// (typically the model controller's update path). It blocks until the
// context is done.
func (mgr *Manager) RelearnLoop(ctx context.Context, source string, interval, window time.Duration, install func(*Model)) {
	ticker := mgr.clk.NewTicker(interval)
	defer ticker.Stop()
	n := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C():
			n++
			id := fmt.Sprintf("%s-relearn-%d", source, n)
			m, _, err := mgr.Rebuild(id, source, mgr.clk.Now().Add(-window))
			if err != nil {
				continue // no logs yet; try next round
			}
			install(m)
		}
	}
}
