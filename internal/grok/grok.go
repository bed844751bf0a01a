// Package grok models LogLens patterns as GROK expressions (§III). A
// pattern is a sequence of tokens, each either a literal or a variable
// field with a datatype and a name ("%{DATETIME:P1F1} %{IP:P1F2} login").
// The package implements parsing and composing GROK text, field-ID
// assignment, pattern signatures, token-level matching with ANYDATA
// wildcard support, and the domain-knowledge edit operations of §III-A4.
package grok

import (
	"fmt"
	"strings"

	"loglens/internal/datatype"
	"loglens/internal/logtypes"
)

// Token is one element of a GROK pattern: either a literal that must match
// the log token exactly, or a variable field.
type Token struct {
	// IsField distinguishes variable fields from literals.
	IsField bool
	// Literal is the exact token text (literals only).
	Literal string
	// Type is the field datatype (fields only).
	Type datatype.Type
	// Name is the field name: a generated PxFy identifier or a
	// semantic name supplied by a heuristic or a user (fields only).
	Name string
}

// FieldToken constructs a variable-field token.
func FieldToken(t datatype.Type, name string) Token {
	return Token{IsField: true, Type: t, Name: name}
}

// LiteralToken constructs a literal token.
func LiteralToken(text string) Token {
	return Token{Literal: text}
}

// String renders the token in GROK notation.
func (t Token) String() string {
	if t.IsField {
		if t.Name == "" {
			return fmt.Sprintf("%%{%s}", t.Type)
		}
		return fmt.Sprintf("%%{%s:%s}", t.Type, t.Name)
	}
	return t.Literal
}

// SignatureType is the datatype the token contributes to the pattern
// signature: the field's type for fields, the detected datatype of the
// literal's value otherwise (§III-B "Pattern-Signature Generation").
func (t Token) SignatureType() datatype.Type {
	if t.IsField {
		return t.Type
	}
	return datatype.Detect(t.Literal)
}

// Pattern is one GROK pattern.
type Pattern struct {
	// ID is the log-pattern identifier (the P in PxFy field IDs).
	ID int
	// Tokens is the pattern body.
	Tokens []Token

	// Cached derived state, precomputed at single-threaded points
	// (ParsePattern, Set.Add, Clone, the edit operations) so the
	// concurrent read-only parse path never writes to a shared Pattern.
	// Patterns built by hand (&Pattern{Tokens: ...}) have empty caches;
	// the accessors then compute without storing, slower but race-free.
	sig        []datatype.Type
	hasAny     int8 // 0 unknown, 1 no wildcard, 2 has wildcard
	generality int  // valid when hasAny != 0

	// owner is the Set the pattern was added to, so a structural edit
	// drops that set's compiled view (which buckets members by token
	// count and wildcard-ness).
	owner *Set
}

// precompute fills the derived-state caches. Callers must hold the only
// reference to p or be the single goroutine mutating it.
func (p *Pattern) precompute() {
	sig := p.sig
	if cap(sig) < len(p.Tokens) {
		sig = make([]datatype.Type, len(p.Tokens))
	}
	sig = sig[:len(p.Tokens)]
	hasAny := false
	g := 0
	for i, t := range p.Tokens {
		sig[i] = t.SignatureType()
		if t.IsField {
			g += t.Type.Generality()
			if t.Type == datatype.AnyData {
				hasAny = true
			}
		}
	}
	p.sig = sig
	p.generality = g
	if hasAny {
		p.hasAny = 2
	} else {
		p.hasAny = 1
	}
	if p.owner != nil {
		p.owner.compiled.Store(nil)
	}
}

// ParsePattern parses GROK text produced by Pattern.String (or written by
// a user) into a Pattern. Tokens are whitespace-separated; field tokens
// have the form %{TYPE} or %{TYPE:Name}.
func ParsePattern(id int, text string) (*Pattern, error) {
	fields := strings.Fields(text)
	p := &Pattern{ID: id, Tokens: make([]Token, 0, len(fields))}
	for _, f := range fields {
		if strings.HasPrefix(f, "%{") && strings.HasSuffix(f, "}") {
			body := f[2 : len(f)-1]
			typeName, fieldName := body, ""
			if i := strings.IndexByte(body, ':'); i >= 0 {
				typeName, fieldName = body[:i], body[i+1:]
			}
			typ, err := datatype.Parse(typeName)
			if err != nil {
				return nil, fmt.Errorf("grok: pattern %d: %w", id, err)
			}
			p.Tokens = append(p.Tokens, FieldToken(typ, fieldName))
			continue
		}
		p.Tokens = append(p.Tokens, LiteralToken(f))
	}
	if len(p.Tokens) == 0 {
		return nil, fmt.Errorf("grok: pattern %d: empty pattern", id)
	}
	p.precompute()
	return p, nil
}

// String renders the pattern in GROK notation.
func (p *Pattern) String() string {
	parts := make([]string, len(p.Tokens))
	for i, t := range p.Tokens {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// Clone returns a deep copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	q := &Pattern{
		ID:         p.ID,
		Tokens:     make([]Token, len(p.Tokens)),
		hasAny:     p.hasAny,
		generality: p.generality,
	}
	copy(q.Tokens, p.Tokens)
	if p.sig != nil {
		q.sig = make([]datatype.Type, len(p.sig))
		copy(q.sig, p.sig)
	}
	return q
}

// Signature returns the pattern-signature: the space-joined datatype names
// of all tokens.
func (p *Pattern) Signature() string {
	parts := make([]string, len(p.Tokens))
	for i, t := range p.Tokens {
		parts[i] = t.SignatureType().String()
	}
	return strings.Join(parts, " ")
}

// SignatureTypes returns the signature as a datatype slice. For a pattern
// with caches (every member of a Set) it is the cached slice itself, so
// the parser's group builds borrow it instead of copying one per pattern:
// callers must not modify it.
func (p *Pattern) SignatureTypes() []datatype.Type {
	if p.sig != nil {
		return p.sig
	}
	out := make([]datatype.Type, len(p.Tokens))
	for i, t := range p.Tokens {
		out[i] = t.SignatureType()
	}
	return out
}

// HasAnyData reports whether the pattern contains an ANYDATA wildcard.
// Called on every match attempt, so the answer is precomputed; the scan
// below only runs for hand-built patterns with no caches.
func (p *Pattern) HasAnyData() bool {
	if p.hasAny != 0 {
		return p.hasAny == 2
	}
	for _, t := range p.Tokens {
		if t.IsField && t.Type == datatype.AnyData {
			return true
		}
	}
	return false
}

// Generality is the sort key for candidate-pattern-groups: groups are
// scanned in ascending generality so the most specific pattern parses the
// log (§III-B step 2). It sums token generalities; literals rank below any
// field.
func (p *Pattern) Generality() int {
	if p.hasAny != 0 {
		return p.generality
	}
	g := 0
	for _, t := range p.Tokens {
		if t.IsField {
			g += t.Type.Generality()
		}
	}
	return g
}

// FieldCount returns the number of variable fields.
func (p *Pattern) FieldCount() int {
	n := 0
	for _, t := range p.Tokens {
		if t.IsField {
			n++
		}
	}
	return n
}

// Field returns the index of the named field token, or -1.
func (p *Pattern) Field(name string) int {
	for i, t := range p.Tokens {
		if t.IsField && t.Name == name {
			return i
		}
	}
	return -1
}

// AssignFieldIDs names every unnamed field with the generated PxFy scheme:
// pattern ID x, field sequence y counted from 1 (§III-A3). Fields that
// already carry a name (heuristic or user-assigned) are left alone, but
// still consume a sequence number.
func (p *Pattern) AssignFieldIDs() {
	seq := 0
	for i := range p.Tokens {
		if !p.Tokens[i].IsField {
			continue
		}
		seq++
		if p.Tokens[i].Name == "" {
			p.Tokens[i].Name = fmt.Sprintf("P%dF%d", p.ID, seq)
		}
	}
}

// Match matches a tokenized log against the pattern and extracts its
// fields. For patterns without ANYDATA the match is a direct token-wise
// comparison; ANYDATA patterns use dynamic programming so the wildcard can
// absorb any number of tokens (including zero). The returned fields are in
// pattern order; an ANYDATA field's value is the space-joined absorbed
// tokens.
func (p *Pattern) Match(tokens []string) ([]logtypes.Field, bool) {
	if !p.HasAnyData() {
		fields, ok := p.appendMatchExact(nil, tokens)
		if !ok {
			return nil, false
		}
		return fields, true
	}
	return p.matchDP(tokens)
}

// AppendMatch is Match appending the extracted fields to dst, so a caller
// reusing dst across lines pays zero steady-state allocations on the
// wildcard-free path. On a failed match dst is returned unchanged.
func (p *Pattern) AppendMatch(dst []logtypes.Field, tokens []string) ([]logtypes.Field, bool) {
	if !p.HasAnyData() {
		return p.appendMatchExact(dst, tokens)
	}
	fields, ok := p.matchDP(tokens)
	if !ok {
		return dst, false
	}
	return append(dst, fields...), true
}

// Matches reports whether the pattern matches without extracting fields.
func (p *Pattern) Matches(tokens []string) bool {
	_, ok := p.Match(tokens)
	return ok
}

func (p *Pattern) appendMatchExact(dst []logtypes.Field, tokens []string) ([]logtypes.Field, bool) {
	if len(tokens) != len(p.Tokens) {
		return dst, false
	}
	// Literals before datatype checks: a string compare is far cheaper
	// than a DATETIME or IP check, and literals are what tell the
	// patterns of one candidate group apart.
	for i := range p.Tokens {
		if pt := &p.Tokens[i]; !pt.IsField && pt.Literal != tokens[i] {
			return dst, false
		}
	}
	for i := range p.Tokens {
		if pt := &p.Tokens[i]; pt.IsField && !datatype.Matches(pt.Type, tokens[i]) {
			return dst, false
		}
	}
	if dst == nil {
		// One exact-size allocation for callers without a reusable
		// buffer; the failure paths above stay allocation-free.
		dst = make([]logtypes.Field, 0, p.FieldCount())
	}
	for i, pt := range p.Tokens {
		if pt.IsField {
			dst = append(dst, logtypes.Field{Name: pt.Name, Value: tokens[i]})
		}
	}
	return dst, true
}

// tokenMatches reports whether a non-wildcard pattern token accepts one
// log token.
func (pt *Token) tokenMatches(tok string) bool {
	if pt.IsField {
		return datatype.Matches(pt.Type, tok)
	}
	return pt.Literal == tok
}

// anchorsMatch is the wildcard matcher's fail-fast: the necessary
// conditions that need no table. Every non-ANYDATA token consumes exactly
// one log token, so the log must have at least that many; the tokens
// before the first ANYDATA align one to one with the log's head and the
// tokens after the last with its tail. A rejected attempt allocates
// nothing.
func (p *Pattern) anchorsMatch(tokens []string) bool {
	r, s := len(tokens), len(p.Tokens)
	first, last, fixed := -1, -1, 0
	for j := range p.Tokens {
		if pt := &p.Tokens[j]; pt.IsField && pt.Type == datatype.AnyData {
			if first < 0 {
				first = j
			}
			last = j
		} else {
			fixed++
		}
	}
	if r < fixed {
		return false
	}
	for j := 0; j < first; j++ {
		if !p.Tokens[j].tokenMatches(tokens[j]) {
			return false
		}
	}
	for k := 1; k < s-last; k++ {
		if !p.Tokens[s-k].tokenMatches(tokens[r-k]) {
			return false
		}
	}
	return true
}

// matchDP is the wildcard-aware matcher. T[i][j] is true when the first i
// log tokens are matched by the first j pattern tokens; ANYDATA admits
// T[i][j] = T[i][j-1] || T[i-1][j] (absorb nothing / absorb one more).
func (p *Pattern) matchDP(tokens []string) ([]logtypes.Field, bool) {
	r, s := len(tokens), len(p.Tokens)
	if !p.anchorsMatch(tokens) {
		return nil, false
	}
	t := make([][]bool, r+1)
	for i := range t {
		t[i] = make([]bool, s+1)
	}
	t[0][0] = true
	for j := 1; j <= s; j++ {
		// Empty log prefix: only leading ANYDATA tokens can match.
		pt := p.Tokens[j-1]
		t[0][j] = t[0][j-1] && pt.IsField && pt.Type == datatype.AnyData
	}
	for i := 1; i <= r; i++ {
		for j := 1; j <= s; j++ {
			pt := p.Tokens[j-1]
			switch {
			case pt.IsField && pt.Type == datatype.AnyData:
				t[i][j] = t[i][j-1] || t[i-1][j]
			default:
				t[i][j] = t[i-1][j-1] && pt.tokenMatches(tokens[i-1])
			}
		}
	}
	if !t[r][s] {
		return nil, false
	}

	// Traceback to recover field captures. ANYDATA prefers absorbing as
	// little as possible (T[i][j-1] first) so neighbouring specific
	// fields keep their tokens.
	type capture struct {
		tokenIdx int // pattern token index
		parts    []string
	}
	var caps []capture
	i, j := r, s
	for j > 0 {
		pt := p.Tokens[j-1]
		if pt.IsField && pt.Type == datatype.AnyData {
			var parts []string
			for i > 0 && !t[i][j-1] && t[i-1][j] {
				parts = append(parts, tokens[i-1])
				i--
			}
			// Reverse absorbed tokens into reading order.
			for a, b := 0, len(parts)-1; a < b; a, b = a+1, b-1 {
				parts[a], parts[b] = parts[b], parts[a]
			}
			caps = append(caps, capture{tokenIdx: j - 1, parts: parts})
			j--
			continue
		}
		if pt.IsField {
			caps = append(caps, capture{tokenIdx: j - 1, parts: []string{tokens[i-1]}})
		}
		i--
		j--
	}

	fields := make([]logtypes.Field, 0, len(caps))
	for k := len(caps) - 1; k >= 0; k-- {
		c := caps[k]
		fields = append(fields, logtypes.Field{
			Name:  p.Tokens[c.tokenIdx].Name,
			Value: strings.Join(c.parts, " "),
		})
	}
	return fields, true
}
