package modelmgr

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"loglens/internal/bus"
	"loglens/internal/logtypes"
	"loglens/internal/seqdetect"
	"loglens/internal/store"
)

var base = time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)

func stamp(t time.Time) string { return t.Format("2006/01/02 15:04:05.000") }

// corpus builds a simple two-step workflow training corpus.
func corpus(events int) []logtypes.Log {
	var out []logtypes.Log
	seq := uint64(0)
	for i := 0; i < events; i++ {
		id := fmt.Sprintf("ev-%05d", i)
		t0 := base.Add(time.Duration(i*10) * time.Second)
		for _, raw := range []string{
			fmt.Sprintf("%s task %s start prio %d", stamp(t0), id, i%5),
			fmt.Sprintf("%s task %s done code %d", stamp(t0.Add(2*time.Second)), id, i%3),
		} {
			seq++
			out = append(out, logtypes.Log{Source: "tasks", Seq: seq, Raw: raw, Arrival: t0})
		}
	}
	return out
}

func TestBuildFullModel(t *testing.T) {
	b := NewBuilder(BuilderConfig{})
	m, report, err := b.Build("m1", corpus(200))
	if err != nil {
		t.Fatal(err)
	}
	if report.Patterns != 2 {
		t.Fatalf("patterns = %d", report.Patterns)
	}
	if report.Automata != 1 {
		t.Fatalf("automata = %d", report.Automata)
	}
	if report.CoveredPatterns != 2 {
		t.Errorf("covered = %d", report.CoveredPatterns)
	}
	if report.UnparsedTraining != 0 {
		t.Errorf("unparsed = %d", report.UnparsedTraining)
	}
	if report.TrainingLogs != 400 {
		t.Errorf("training logs = %d", report.TrainingLogs)
	}
	if report.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
	if m.ID != "m1" || m.CreatedAt.IsZero() {
		t.Errorf("model meta: id=%q createdAt=%v", m.ID, m.CreatedAt)
	}
	// The built model is immediately usable end to end.
	p := m.NewParser(nil)
	det := m.NewDetector(seqdetect.Config{})
	for _, l := range corpus(3) {
		pl, err := p.Parse(l)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if recs := det.Process(pl); len(recs) != 0 {
			t.Fatalf("normal trace flagged: %+v", recs)
		}
	}
}

func TestBuildSkipSequence(t *testing.T) {
	b := NewBuilder(BuilderConfig{SkipSequence: true})
	m, report, err := b.Build("p-only", corpus(50))
	if err != nil {
		t.Fatal(err)
	}
	if report.Automata != 0 || len(m.Sequence.Automata) != 0 {
		t.Error("sequence model must be empty with SkipSequence")
	}
	if report.Patterns != 2 {
		t.Errorf("patterns = %d", report.Patterns)
	}
}

func TestBuildEmptyCorpus(t *testing.T) {
	b := NewBuilder(BuilderConfig{})
	if _, _, err := b.Build("x", nil); err == nil {
		t.Error("empty corpus must fail")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	b := NewBuilder(BuilderConfig{})
	m, _, err := b.Build("m1", corpus(100))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Model
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.ID != m.ID || m2.Patterns.Len() != m.Patterns.Len() || len(m2.Sequence.Automata) != len(m.Sequence.Automata) {
		t.Errorf("round trip mismatch")
	}
	// The stored form is human-editable GROK text.
	var generic map[string]any
	json.Unmarshal(data, &generic)
	if _, ok := generic["patterns"]; !ok {
		t.Error("patterns missing from JSON")
	}
}

func TestModelCloneIsolation(t *testing.T) {
	b := NewBuilder(BuilderConfig{})
	m, _, err := b.Build("m1", corpus(100))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	c.Sequence.Delete(c.Sequence.Automata[0].ID)
	for _, p := range c.Patterns.Patterns() {
		c.Patterns.Delete(p.ID)
	}
	if len(m.Sequence.Automata) != 1 || m.Patterns.Len() != 2 {
		t.Error("Clone shares state with the original")
	}
}

func TestManagerSaveLoadList(t *testing.T) {
	st := store.New()
	builder := NewBuilder(BuilderConfig{})
	mgr := NewManager(st, builder)

	m1, _, err := builder.Build("m1", corpus(50))
	if err != nil {
		t.Fatal(err)
	}
	m1.CreatedAt = base
	if err := mgr.Save(m1); err != nil {
		t.Fatal(err)
	}
	m2 := m1.Clone()
	m2.ID = "m2"
	m2.CreatedAt = base.Add(time.Hour)
	if err := mgr.Save(m2); err != nil {
		t.Fatal(err)
	}

	loaded, err := mgr.Load("m1")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Patterns.Len() != m1.Patterns.Len() {
		t.Error("loaded model differs")
	}
	if _, err := mgr.Load("missing"); err == nil {
		t.Error("missing model must fail")
	}

	ids := mgr.List()
	if len(ids) != 2 || ids[0] != "m2" {
		t.Errorf("List = %v (newest first)", ids)
	}
	latest, err := mgr.Latest()
	if err != nil || latest.ID != "m2" {
		t.Errorf("Latest = %v, %v", latest, err)
	}
	if !mgr.Delete("m1") || mgr.Delete("m1") {
		t.Error("Delete semantics")
	}
}

func TestManagerLatestEmpty(t *testing.T) {
	mgr := NewManager(store.New(), NewBuilder(BuilderConfig{}))
	if _, err := mgr.Latest(); err == nil {
		t.Error("empty storage must fail")
	}
}

func TestRebuildFromLogStorage(t *testing.T) {
	st := store.New()
	builder := NewBuilder(BuilderConfig{})
	mgr := NewManager(st, builder)

	// Archive logs the way the log manager does.
	ix := st.Index(LogsIndexFor("tasks"))
	for _, l := range corpus(100) {
		ix.PutAuto(store.Document{"raw": l.Raw, "seq": l.Seq, "arrival": l.Arrival, "source": l.Source})
	}

	m, report, err := mgr.Rebuild("rebuilt", "tasks", base.Add(-time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if report.Patterns != 2 {
		t.Errorf("patterns = %d", report.Patterns)
	}
	// Saved automatically.
	if _, err := mgr.Load("rebuilt"); err != nil {
		t.Errorf("rebuilt model not saved: %v", err)
	}
	// Window excludes everything -> error.
	if _, _, err := mgr.Rebuild("r2", "tasks", base.Add(1000*time.Hour)); err == nil {
		t.Error("empty window must fail")
	}
	_ = m
}

func TestRelearnLoop(t *testing.T) {
	st := store.New()
	builder := NewBuilder(BuilderConfig{})
	mgr := NewManager(st, builder)
	ix := st.Index(LogsIndexFor("tasks"))
	for _, l := range corpus(50) {
		ix.PutAuto(store.Document{"raw": l.Raw, "seq": l.Seq, "arrival": time.Now(), "source": l.Source})
	}

	var mu sync.Mutex
	installed := 0
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		mgr.RelearnLoop(ctx, "tasks", 10*time.Millisecond, time.Hour, func(m *Model) {
			mu.Lock()
			installed++
			mu.Unlock()
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := installed
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relearn loop never installed a model")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
}

func TestControllerAnnounceWatch(t *testing.T) {
	b := bus.New()
	c, err := NewController(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Announce(Instruction{Op: "bogus", ModelID: "x"}); err == nil {
		t.Error("invalid op must fail")
	}

	var mu sync.Mutex
	var got []Instruction
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.Watch(ctx, "watchers", func(ins Instruction) {
			mu.Lock()
			got = append(got, ins)
			mu.Unlock()
		})
	}()

	want := []Instruction{
		{Op: OpAdd, ModelID: "m1"},
		{Op: OpUpdate, ModelID: "m1", Source: "web"},
		{Op: OpDelete, ModelID: "m1"},
	}
	for _, ins := range want {
		if err := c.Announce(ins); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watched %d of %d instructions", n, len(want))
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("Watch returned %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, ins := range want {
		if got[i] != ins {
			t.Errorf("instruction %d = %+v, want %+v", i, got[i], ins)
		}
	}
}

func TestUnmarshalEmptyModel(t *testing.T) {
	var m Model
	if err := json.Unmarshal([]byte(`{"id":"empty","createdAt":"2016-02-23T09:00:00Z"}`), &m); err != nil {
		t.Fatal(err)
	}
	if m.Patterns == nil || m.Sequence == nil {
		t.Error("nil sub-models after unmarshal")
	}
}

// TestRebuildPersistentMatchesMemory: Rebuild decodes stored logs the
// same way from an in-memory and a persistent store. The lines carry no timestamp, so the
// volume profile buckets them by their stored arrival; a lost arrival
// (or seq) would shift every bucket to year 1. Logs archived the old way
// (uint64 seq, time.Time arrival, one PutAuto each) and the log
// manager's way (ArchiveDoc, PutBatch) must both give the profile a
// build on the original logs learns.
func TestRebuildPersistentMatchesMemory(t *testing.T) {
	var logs []logtypes.Log
	for i := 0; i < 120; i++ {
		raw := fmt.Sprintf("task ev-%05d start prio %d", i, i%5)
		if i%3 == 0 {
			raw = fmt.Sprintf("task ev-%05d done code %d", i, i%3)
		}
		logs = append(logs, logtypes.Log{Source: "tasks", Seq: uint64(i + 1), Raw: raw, Arrival: base.Add(time.Duration(i*7) * time.Second)})
	}
	cfg := BuilderConfig{VolumeWindow: time.Minute, SkipSequence: true}
	want, _, err := NewBuilder(cfg).Build("direct", logs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Volume.Stats) == 0 {
		t.Fatal("direct build learned no volume profile")
	}
	archive := map[string]func(*store.Index){
		"put-auto": func(ix *store.Index) {
			for _, l := range logs {
				ix.PutAuto(store.Document{"raw": l.Raw, "seq": l.Seq, "arrival": l.Arrival, "source": l.Source})
			}
		},
		"put-batch": func(ix *store.Index) {
			docs := make([]store.Document, len(logs))
			for i, l := range logs {
				docs[i] = ArchiveDoc(l)
			}
			ix.PutBatch(docs)
		},
	}
	for way, put := range archive {
		persistent, err := store.Open(store.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for engine, st := range map[string]*store.Store{"memory": store.New(), "persistent": persistent} {
			put(st.Index(LogsIndexFor("tasks")))
			m, _, err := NewManager(st, NewBuilder(cfg)).Rebuild("rebuilt", "tasks", base.Add(-time.Hour))
			if err != nil {
				t.Fatalf("%s/%s: %v", way, engine, err)
			}
			if !reflect.DeepEqual(m.Volume, want.Volume) {
				t.Errorf("%s/%s: rebuilt volume profile %+v, want %+v", way, engine, m.Volume, want.Volume)
			}
		}
		if err := persistent.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
