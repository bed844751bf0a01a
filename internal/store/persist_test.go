package store

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	s := New()
	s.Index("logs-web/prod").Put("a", Document{"raw": "line one"})
	s.Index("anomalies").Put("x", Document{"type": "missing-end-state"})
	s.Index("models").Put("m1", Document{"body": "{}"})
	if err := s.SaveDirFS(nil, dir); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	if err := s2.LoadDirFS(nil, dir); err != nil {
		t.Fatal(err)
	}
	if got := s2.Indices(); len(got) != 3 {
		t.Fatalf("indices = %v", got)
	}
	doc, ok := s2.Index("logs-web/prod").Get("a")
	if !ok || doc["raw"] != "line one" {
		t.Errorf("doc = %v/%v (slash in index name must round-trip)", doc, ok)
	}
	if s2.Index("anomalies").Count() != 1 {
		t.Error("anomalies lost")
	}
}

func TestSaveDirPrunesDeletedIndices(t *testing.T) {
	dir := t.TempDir()
	s := New()
	s.Index("a").Put("1", Document{"x": 1})
	s.Index("b").Put("1", Document{"x": 1})
	if err := s.SaveDirFS(nil, dir); err != nil {
		t.Fatal(err)
	}
	s.DeleteIndex("b")
	if err := s.SaveDirFS(nil, dir); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.LoadDirFS(nil, dir); err != nil {
		t.Fatal(err)
	}
	if got := s2.Indices(); len(got) != 1 || got[0] != "a" {
		t.Errorf("indices after prune = %v", got)
	}
}

func TestLoadDirIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a snapshot"), 0o644)
	s := New()
	s.Index("a").Put("1", Document{"x": 1})
	if err := s.SaveDirFS(nil, dir); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.LoadDirFS(nil, dir); err != nil {
		t.Fatal(err)
	}
	if len(s2.Indices()) != 1 {
		t.Errorf("indices = %v", s2.Indices())
	}
}

func TestLoadDirMissing(t *testing.T) {
	s := New()
	if err := s.LoadDirFS(nil, "/nonexistent/path/zz"); err == nil {
		t.Error("missing dir must fail")
	}
}

func TestLoadDirCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "bad.index.json"), []byte("{not json"), 0o644)
	s := New()
	if err := s.LoadDirFS(nil, dir); err == nil {
		t.Error("corrupt snapshot must fail")
	}
}
