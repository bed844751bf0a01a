package modelmgr

import (
	"strings"
	"testing"

	"loglens/internal/clock"
	"loglens/internal/obs"
	"loglens/internal/store"
)

// TestStorageErrorsRecorded: model-storage failures are captured in the
// flight recorder at the source.
func TestStorageErrorsRecorded(t *testing.T) {
	mgr := NewManager(store.New(), NewBuilder(BuilderConfig{}))
	f := obs.NewFlightRecorder(clock.NewFake(), 8)
	mgr.Instrument(&obs.Ops{Events: f})

	if _, err := mgr.Load("ghost"); err == nil {
		t.Fatal("loading a missing model must fail")
	}
	evs := f.Events(obs.EventQuery{Type: obs.EventStorageError})
	if len(evs) != 1 || evs[0].Source != "ghost" ||
		!strings.Contains(evs[0].Detail, "not found") {
		t.Fatalf("storage-error events = %+v", evs)
	}

	// A corrupt stored document fails decode and records again.
	mgr.store.Index(ModelsIndex).Put("bad", store.Document{"id": "bad", "body": "{not json"})
	if _, err := mgr.Load("bad"); err == nil {
		t.Fatal("loading a corrupt model must fail")
	}
	if got := len(f.Events(obs.EventQuery{Type: obs.EventStorageError})); got != 2 {
		t.Fatalf("storage-error events = %d, want 2", got)
	}
}
