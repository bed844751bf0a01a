package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"loglens/internal/core"
	"loglens/internal/store"
)

func writeCorpus(t *testing.T, dir string) (trainPath, testPath string) {
	t.Helper()
	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	var train, stream []byte
	for i := 0; i < 150; i++ {
		t0 := base.Add(time.Duration(i*10) * time.Second)
		id := fmt.Sprintf("ev-%04d", i)
		train = append(train, []byte(fmt.Sprintf("%s task %s start prio %d\n", t0.Format("2006/01/02 15:04:05.000"), id, i%5))...)
		train = append(train, []byte(fmt.Sprintf("%s task %s done code %d\n", t0.Add(2*time.Second).Format("2006/01/02 15:04:05.000"), id, i%3))...)
	}
	tt := base.Add(time.Hour)
	stream = append(stream, []byte(fmt.Sprintf("%s task ok-1 start prio 1\n", tt.Format("2006/01/02 15:04:05.000")))...)
	stream = append(stream, []byte(fmt.Sprintf("%s task ok-1 done code 0\n", tt.Add(2*time.Second).Format("2006/01/02 15:04:05.000")))...)
	stream = append(stream, []byte(fmt.Sprintf("%s task bad-1 done code 0\n", tt.Add(3*time.Second).Format("2006/01/02 15:04:05.000")))...)
	stream = append(stream, []byte("garbage line\n")...)

	trainPath = filepath.Join(dir, "train.log")
	testPath = filepath.Join(dir, "stream.log")
	os.WriteFile(trainPath, train, 0o644)
	os.WriteFile(testPath, stream, 0o644)
	return
}

func TestRunTrainAndStream(t *testing.T) {
	dir := t.TempDir()
	trainPath, streamPath := writeCorpus(t, dir)
	modelPath := filepath.Join(dir, "model.json")
	dataDir := filepath.Join(dir, "data")

	o := options{
		trainPath:  trainPath,
		streamPath: streamPath,
		source:     "tasks",
		hbInterval: 0, // deterministic
		finalHB:    true,
		quiet:      true,
		saveModel:  modelPath,
		dataDir:    dataDir,
		metrics:    true,
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Errorf("model not saved: %v", err)
	}
	first := storedAnomalies(t, dataDir)
	if len(first) == 0 {
		t.Fatal("first run stored no anomalies in the data dir")
	}

	// Second run: load the saved model and reopen the data dir. Its store
	// starts from the first run's anomalies and adds its own after them.
	o2 := options{
		loadModel:  modelPath,
		streamPath: streamPath,
		source:     "tasks",
		hbInterval: 0,
		quiet:      true,
		dataDir:    dataDir,
	}
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
	second := storedAnomalies(t, dataDir)
	if len(second) <= len(first) {
		t.Fatalf("second run holds %d anomalies, want more than the first run's %d", len(second), len(first))
	}
	for id, doc := range first {
		if got, ok := second[id]; !ok || !reflect.DeepEqual(got, doc) {
			t.Errorf("anomaly %s after the second run = %v, want the first run's %v", id, got, doc)
		}
	}
}

// storedAnomalies reads the anomaly index a run left in dataDir.
func storedAnomalies(t *testing.T, dataDir string) map[string]store.Document {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out := make(map[string]store.Document)
	for _, h := range st.Index(core.AnomaliesIndex).Search(store.Query{}) {
		out[h.ID] = h.Doc
	}
	return out
}

func TestRunFlagValidation(t *testing.T) {
	if err := run(options{streamPath: "-"}); err == nil {
		t.Error("missing -train/-load-model must fail")
	}
	if err := run(options{trainPath: "x"}); err == nil {
		t.Error("missing -stream must fail")
	}
	if err := run(options{trainPath: "/nope/missing", streamPath: "-"}); err == nil {
		t.Error("unreadable train file must fail")
	}
	// A worker on an external broker has no local bus for -listen to
	// serve; agents belong on the broker.
	err := run(options{trainPath: "x", streamPath: "-", listen: ":0", busAddr: "127.0.0.1:7070"})
	if err == nil || !strings.Contains(err.Error(), "shiplogs -bus 127.0.0.1:7070") {
		t.Errorf("-listen with -bus = %v, want an error pointing agents at the broker", err)
	}
}
