package fsx

import (
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mem is an in-memory FS with the OS implementation's observable
// behaviour for the calls the store makes: writes copy their input, a
// write needs its parent directory, missing paths report fs.ErrNotExist,
// and ReadDir lists a directory sorted by name. It is safe for concurrent
// use. A file's bytes are never modified in place once written — Append
// only extends them — so an Open handle keeps reading the bytes it was
// opened on. Closing a handle releases nothing: like a file unlinked
// while open, it stays readable for as long as it is referenced.
type Mem struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string][]byte), dirs: map[string]bool{".": true, "/": true}}
}

func memErr(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// parentOK reports whether p's directory exists. Caller holds m.mu.
func (m *Mem) parentOK(p string) bool { return m.dirs[filepath.Dir(p)] }

func (m *Mem) MkdirAll(path string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); !m.dirs[p]; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *Mem) WriteFile(path string, data []byte, _ fs.FileMode) error {
	p := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.parentOK(p) {
		return memErr("open", path)
	}
	m.files[p] = append([]byte(nil), data...)
	return nil
}

func (m *Mem) Append(path string, data []byte, _ fs.FileMode) error {
	p := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.parentOK(p) {
		return memErr("open", path)
	}
	m.files[p] = append(m.files[p], data...)
	return nil
}

func (m *Mem) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, memErr("open", path)
	}
	return append([]byte(nil), data...), nil
}

func (m *Mem) Open(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, memErr("open", path)
	}
	return memFile(data[:len(data):len(data)]), nil
}

func (m *Mem) ReadDir(path string) ([]fs.DirEntry, error) {
	dir := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, memErr("open", path)
	}
	var out []fs.DirEntry
	for p, data := range m.files {
		if filepath.Dir(p) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(data))}))
		}
	}
	for p := range m.dirs {
		if p != dir && filepath.Dir(p) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), dir: true}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Remove deletes a file; directories go with RemoveAll.
func (m *Mem) Remove(path string) error {
	p := filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; !ok {
		return memErr("remove", path)
	}
	delete(m.files, p)
	return nil
}

func (m *Mem) RemoveAll(path string) error {
	p := filepath.Clean(path)
	prefix := p + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	for q := range m.files {
		if q == p || strings.HasPrefix(q, prefix) {
			delete(m.files, q)
		}
	}
	for q := range m.dirs {
		if q == p || strings.HasPrefix(q, prefix) {
			delete(m.dirs, q)
		}
	}
	return nil
}

// Rename moves a file; directories are not renamed.
func (m *Mem) Rename(oldpath, newpath string) error {
	from, to := filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[from]
	if !ok || !m.parentOK(to) {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, from)
	m.files[to] = data
	return nil
}

// memFile is an Open handle: the file's bytes as of the Open.
type memFile []byte

func (f memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, &fs.PathError{Op: "readat", Err: fs.ErrInvalid}
	}
	if off >= int64(len(f)) {
		return 0, io.EOF
	}
	n := copy(p, f[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (memFile) Close() error { return nil }

// memInfo describes a Mem entry to ReadDir.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool      { return i.dir }
func (memInfo) Sys() any           { return nil }
