package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loglens/internal/netbus"
)

// TestRunRefusesOversizeLine: a line whose record outgrows the spool cap
// stops the agent with an error naming the line, before anything ships.
func TestRunRefusesOversizeLine(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.log")
	if err := os.WriteFile(in, []byte("short\n"+strings.Repeat("x", 300)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run("127.0.0.1:1", "src", in, 0, dir, 200)
	if !errors.Is(err, netbus.ErrSpoolRecordTooBig) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("run = %v, want ErrSpoolRecordTooBig naming line 2", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run("", "src", "-", 0, "", 0); err == nil {
		t.Error("missing -bus must fail")
	}
	if err := run("127.0.0.1:1", "", "-", 0, "", 0); err == nil {
		t.Error("missing -source must fail")
	}
}
