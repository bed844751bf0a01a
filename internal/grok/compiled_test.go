package grok

import (
	"encoding/json"
	"sync"
	"testing"

	"loglens/internal/datatype"
)

func ids(ps []*Pattern) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

func sameIDs(a []*Pattern, want ...int) bool {
	got := ids(a)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestCandidatesBuckets: wildcard-free patterns are visited only at their
// own token count, ANYDATA patterns at every count, both in ID order.
func TestCandidatesBuckets(t *testing.T) {
	s := NewSet()
	s.Add(mustPattern(t, 5, "b %{NUMBER}"))
	s.Add(mustPattern(t, 2, "a %{NUMBER}"))
	s.Add(mustPattern(t, 3, "a %{NUMBER} c"))
	s.Add(mustPattern(t, 9, "q %{ANYDATA}"))
	s.Add(mustPattern(t, 4, "%{ANYDATA} z"))

	exact, wild := s.Candidates(2)
	if !sameIDs(exact, 2, 5) || !sameIDs(wild, 4, 9) {
		t.Fatalf("Candidates(2) = %v, %v", ids(exact), ids(wild))
	}
	if exact, _ := s.Candidates(3); !sameIDs(exact, 3) {
		t.Fatalf("Candidates(3) exact = %v", ids(exact))
	}
	if exact, wild := s.Candidates(7); len(exact) != 0 || !sameIDs(wild, 4, 9) {
		t.Fatalf("Candidates(7) = %v, %v", ids(exact), ids(wild))
	}
	if !sameIDs(s.Patterns(), 2, 3, 4, 5, 9) {
		t.Fatalf("Patterns = %v", ids(s.Patterns()))
	}

	// Patterns hands out a slice of the caller's own.
	ps := s.Patterns()
	ps[0] = nil
	if s.Patterns()[0] == nil {
		t.Fatal("Patterns aliases the compiled view")
	}
}

// TestCandidatesTrackMutations: every way a set's membership or a member's
// shape can change drops the compiled view.
func TestCandidatesTrackMutations(t *testing.T) {
	s := NewSet()
	s.Add(mustPattern(t, 1, "a %{NUMBER:n}"))
	s.Add(mustPattern(t, 2, "b %{NUMBER:n} tail"))
	if exact, _ := s.Candidates(2); !sameIDs(exact, 1) {
		t.Fatalf("initial Candidates(2) = %v", ids(exact))
	}

	s.Add(mustPattern(t, 3, "c %{WORD}"))
	if exact, _ := s.Candidates(2); !sameIDs(exact, 1, 3) {
		t.Fatalf("after Add: %v", ids(exact))
	}
	s.Delete(1)
	if exact, _ := s.Candidates(2); !sameIDs(exact, 3) {
		t.Fatalf("after Delete: %v", ids(exact))
	}

	// An in-place edit that turns a member into a wildcard pattern moves
	// it between buckets.
	p2, _ := s.Get(2)
	if err := p2.SetFieldType("n", datatype.AnyData); err != nil {
		t.Fatal(err)
	}
	exact, wild := s.Candidates(3)
	if len(exact) != 0 || !sameIDs(wild, 2) {
		t.Fatalf("after retype to ANYDATA: exact %v wild %v", ids(exact), ids(wild))
	}

	// Editing a clone's member invalidates the clone, not the original.
	c := s.Clone()
	s.Candidates(2)
	c.Candidates(2)
	cp, _ := c.Get(3)
	if err := cp.SetFieldType("P3F1", datatype.AnyData); err != nil {
		t.Fatal(err)
	}
	if _, wild := c.Candidates(2); !sameIDs(wild, 2, 3) {
		t.Fatalf("clone after edit: wild %v", ids(wild))
	}
	if _, wild := s.Candidates(2); !sameIDs(wild, 2) {
		t.Fatalf("original disturbed by clone edit: wild %v", ids(wild))
	}

	data, err := json.Marshal(mustSetOf(t, "x y z"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, s); err != nil {
		t.Fatal(err)
	}
	if exact, wild := s.Candidates(3); !sameIDs(exact, 1) || len(wild) != 0 {
		t.Fatalf("after UnmarshalJSON: exact %v wild %v", ids(exact), ids(wild))
	}
}

func mustSetOf(t *testing.T, texts ...string) *Set {
	t.Helper()
	s := NewSet()
	for _, text := range texts {
		s.Add(mustPattern(t, 0, text))
	}
	return s
}

// TestCompileOnceConcurrently: first users on different goroutines share
// one compiled view (run under -race).
func TestCompileOnceConcurrently(t *testing.T) {
	s := mustSetOf(t, "a %{NUMBER}", "b %{NUMBER}", "c %{ANYDATA}")
	views := make([][]*Pattern, 4)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			views[g], _ = s.Candidates(2)
		}(g)
	}
	wg.Wait()
	for g, v := range views {
		if len(v) != 2 || &v[0] != &views[0][0] {
			t.Fatalf("goroutine %d got its own compiled view", g)
		}
	}
}

// TestWildcardFailFastZeroAllocs: a wildcard match that the token count or
// the anchored head and tail already rule out never builds the DP table.
func TestWildcardFailFastZeroAllocs(t *testing.T) {
	p := mustPattern(t, 1, "query %{NUMBER:id} %{ANYDATA:sql} rc %{NUMBER:rc}")
	rejected := map[string][]string{
		"too few tokens": {"query", "7", "rc"},
		"head literal":   {"fetch", "7", "select", "x", "rc", "0"},
		"head datatype":  {"query", "seven", "select", "x", "rc", "0"},
		"tail literal":   {"query", "7", "select", "x", "status", "0"},
		"tail datatype":  {"query", "7", "select", "x", "rc", "ok"},
	}
	for name, tokens := range rejected {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := p.AppendMatch(nil, tokens); ok {
				t.Fatalf("%s: matched %v", name, tokens)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: failed wildcard match allocates %v, want 0", name, allocs)
		}
	}
	if f, ok := p.Match([]string{"query", "7", "select", "x", "rc", "0"}); !ok || f[1].Value != "select x" {
		t.Fatalf("wildcard match broken: %v %v", f, ok)
	}
	if f, ok := p.Match([]string{"query", "7", "rc", "0"}); !ok || f[1].Value != "" {
		t.Fatalf("empty wildcard match broken: %v %v", f, ok)
	}
}
