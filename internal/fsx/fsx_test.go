package fsx

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(OS{}, path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if err := WriteFileAtomic(OS{}, path, []byte("v2"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic rewrite: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("ReadFile = %q, %v; want v2", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want 1 (no stray temp files)", len(entries))
	}
}

// failFS wraps OS, failing WriteFile or Rename on demand.
type failFS struct {
	OS
	failWrite  bool
	failRename bool
}

var errInject = errors.New("injected")

func (f failFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	if f.failWrite {
		return errInject
	}
	return f.OS.WriteFile(path, data, perm)
}

func (f failFS) Rename(oldpath, newpath string) error {
	if f.failRename {
		return errInject
	}
	return f.OS.Rename(oldpath, newpath)
}

func TestWriteFileAtomicPreservesOldOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   failFS
	}{
		{"write-error", failFS{failWrite: true}},
		{"rename-error", failFS{failRename: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.json")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			err := WriteFileAtomic(tc.fs, path, []byte("new"), 0o644)
			if !errors.Is(err, errInject) {
				t.Fatalf("err = %v, want injected", err)
			}
			data, _ := os.ReadFile(path)
			if string(data) != "old" {
				t.Fatalf("destination = %q after failed write, want old contents intact", data)
			}
			entries, _ := os.ReadDir(dir)
			if len(entries) != 1 {
				t.Fatalf("dir has %d entries after failure, want 1 (temp cleaned)", len(entries))
			}
		})
	}
}

func TestWriteFileAtomicNilFSDefaultsToOS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileAtomic(nil, path, []byte("x"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic(nil): %v", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "x" {
		t.Fatalf("contents = %q", data)
	}
}

func TestOSAppendCreatesAndAppends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	var fsys OS
	if err := fsys.Append(path, []byte("aaa"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Append(path, []byte("bbb"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaabbb" {
		t.Fatalf("Append produced %q, want aaabbb", got)
	}
	// Appending into a missing directory fails rather than creating it.
	if err := fsys.Append(filepath.Join(dir, "nodir", "wal.log"), []byte("x"), 0o644); err == nil {
		t.Fatal("Append into a missing directory succeeded")
	}
}

func TestOSOpenReadsAt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	var fsys OS
	if err := fsys.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 3); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "3456" {
		t.Fatalf("ReadAt = %q, want 3456", buf)
	}
	if _, err := fsys.Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("ReadDir saw %d entries, want 2", len(ents))
	}
	if err := fsys.RemoveAll(filepath.Join(dir, "sub")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sub")); !os.IsNotExist(err) {
		t.Fatalf("RemoveAll left the directory: %v", err)
	}
}

// TestFSContract runs the same assertions against OS (on a temp dir) and
// Mem: the behaviour the store and recovery rely on from either.
func TestFSContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   FS
		root func(*testing.T) string
	}{
		{"OS", OS{}, func(t *testing.T) string { return t.TempDir() }},
		{"Mem", NewMem(), func(*testing.T) string { return "/data" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys, root := tc.fs, tc.root(t)
			p := func(rel string) string { return filepath.Join(root, rel) }
			read := func(rel string) string {
				t.Helper()
				data, err := fsys.ReadFile(p(rel))
				if err != nil {
					t.Fatalf("ReadFile(%s): %v", rel, err)
				}
				return string(data)
			}
			if err := fsys.MkdirAll(p("seg"), 0o755); err != nil {
				t.Fatal(err)
			}

			// WriteFile copies its input; Append extends a file, creating
			// it when missing.
			buf := []byte("abc")
			if err := fsys.WriteFile(p("f"), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			if got := read("f"); got != "abc" {
				t.Errorf("after the caller reused its buffer, f = %q, want abc", got)
			}
			for _, chunk := range []string{"wal", "-tail"} {
				if err := fsys.Append(p("wal"), []byte(chunk), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got := read("wal"); got != "wal-tail" {
				t.Errorf("wal = %q, want wal-tail", got)
			}

			// An Open handle reads the bytes it was opened on, also after
			// a later Append.
			fh, err := fsys.Open(p("wal"))
			if err != nil {
				t.Fatal(err)
			}
			if err := fsys.Append(p("wal"), []byte("-more"), 0o644); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 3)
			if _, err := fh.ReadAt(got, 4); err != nil || string(got) != "tai" {
				t.Errorf("ReadAt after Append = %q, %v; want tai", got, err)
			}
			fh.Close()

			// WriteFileAtomic replaces a file whole and leaves no temp
			// file; Rename moves one.
			if err := WriteFileAtomic(fsys, p("f"), []byte("v2"), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := read("f"); got != "v2" {
				t.Errorf("f = %q after WriteFileAtomic, want v2", got)
			}
			if err := fsys.Rename(p("f"), p("seg/g")); err != nil {
				t.Fatal(err)
			}
			if got := read("seg/g"); got != "v2" {
				t.Errorf("seg/g = %q after Rename, want v2", got)
			}

			// ReadDir lists names sorted, directories included; missing
			// paths report ErrNotExist.
			for _, name := range []string{"seg/b", "seg/a"} {
				if err := fsys.WriteFile(p(name), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var names []string
			ents, err := fsys.ReadDir(p("seg"))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				names = append(names, e.Name())
			}
			if strings.Join(names, ",") != "a,b,g" {
				t.Errorf("ReadDir(seg) = %v, want [a b g]", names)
			}
			if ents, err := fsys.ReadDir(root); err != nil || len(ents) != 2 || ents[0].Name() != "seg" || !ents[0].IsDir() || ents[1].Name() != "wal" {
				t.Errorf("ReadDir(root) = %v, %v; want [seg/ wal]", ents, err)
			}
			for name, err := range map[string]error{
				"ReadFile": func() error { _, err := fsys.ReadFile(p("f")); return err }(),
				"Open":     func() error { _, err := fsys.Open(p("f")); return err }(),
				"ReadDir":  func() error { _, err := fsys.ReadDir(p("nodir")); return err }(),
				"Remove":   fsys.Remove(p("f")),
				"Rename":   fsys.Rename(p("f"), p("h")),
				"Append":   fsys.Append(p("nodir/wal"), []byte("x"), 0o644),
				"Write":    fsys.WriteFile(p("nodir/f"), []byte("x"), 0o644),
			} {
				if !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("%s on a missing path = %v, want ErrNotExist", name, err)
				}
			}

			// Remove drops a file, RemoveAll a tree.
			if err := fsys.Remove(p("seg/a")); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.ReadFile(p("seg/a")); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("seg/a after Remove: %v, want ErrNotExist", err)
			}
			if err := fsys.RemoveAll(p("seg")); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.ReadFile(p("seg/b")); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("seg/b after RemoveAll: %v, want ErrNotExist", err)
			}
			if err := fsys.RemoveAll(p("seg")); err != nil {
				t.Errorf("RemoveAll of a missing path = %v, want nil", err)
			}
		})
	}
}
