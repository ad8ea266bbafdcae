package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"xtq/internal/automaton"
	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/xerr"
	"xtq/internal/xpath"
)

// Query is a transform query
//
//	transform copy $a := doc("T") modify do u($a) return $a.
type Query struct {
	Var    string // variable name without '$', e.g. "a"
	Doc    string // the doc(...) argument, informational
	Update Update
}

// Validate checks the query.
func (q *Query) Validate() error {
	if q.Var == "" {
		return xerr.New(xerr.Compile, "", "core: transform query without variable")
	}
	return q.Update.Validate()
}

// String renders the query in the W3C draft surface syntax used throughout
// the paper. The rendering round-trips through ParseQuery (the engine's
// cache relies on it), so the doc() argument is quoted with whichever
// quote character it does not contain rather than Go escaping.
func (q *Query) String() string {
	v := "$" + q.Var
	return fmt.Sprintf("transform copy %s := doc(%s) modify do %s return %s",
		v, quoteDocArg(q.Doc), q.Update.String(v), v)
}

// quoteDocArg renders a doc() argument in surface syntax. The parser
// takes everything between the quotes literally (no escapes), so an
// argument containing both quote characters is not expressible; fall
// back to Go quoting for display — ParseQuery will reject it, which
// callers that need round-tripping detect.
func quoteDocArg(s string) string {
	if !strings.Contains(s, `"`) {
		return `"` + s + `"`
	}
	if !strings.Contains(s, "'") {
		return "'" + s + "'"
	}
	return fmt.Sprintf("%q", s)
}

// Compiled is a transform query with its selecting NFA built; evaluation
// methods operate on compiled queries so the O(|p|) automaton construction
// (§3.4) happens once. A Compiled is immutable after construction and safe
// for concurrent use by multiple goroutines.
type Compiled struct {
	Query *Query
	NFA   *automaton.NFA
	// elem is Query.Update.Elem frozen once: topDown links this one node
	// into every result instead of copying the constant per match. Its own
	// index owns it, so no result index claims it, and PathCopy copies it
	// into a commit like any other non-member.
	elem *tree.Node
	// elemXML is elem's serialization, made on the first emit walk that
	// writes it (never at Compile: commits compile on their hot path)
	// and shared by every answer that holds the constant.
	elemXML atomic.Pointer[[]byte]
	// id names the compiled query in a chain's recorded answers (see
	// tree.Index.ReadAnswer): unique per Compile, so a recording pins
	// no query.
	id uint64
}

// compiledIDs hands out Compiled.id.
var compiledIDs atomic.Uint64

// Compile validates the query and builds its selecting NFA.
func (q *Query) Compile() (*Compiled, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	nfa, err := automaton.New(q.Update.Path)
	if err != nil {
		return nil, xerr.Wrap(xerr.Compile, err)
	}
	c := &Compiled{Query: q, NFA: nfa, id: compiledIDs.Add(1)}
	if q.Update.Elem != nil {
		c.elem, _, _ = tree.Freeze(q.Update.Elem, nil)
	}
	return c, nil
}

// Elem returns the update's constant element frozen once per Compiled
// (nil for delete and rename): the node topdown and compose link into
// their results, so Query.Update.Elem itself is never shared into one.
// Treat it as read-only.
func (c *Compiled) Elem() *tree.Node { return c.elem }

// elemBytes returns the serialization of the update's constant, made
// once. Concurrent first calls may each serialize it, but every caller
// gets the one published slice: a recorder shares it by identity.
func (c *Compiled) elemBytes() []byte {
	if b := c.elemXML.Load(); b != nil {
		return *b
	}
	b := []byte(c.elem.String())
	c.elemXML.CompareAndSwap(nil, &b)
	return *c.elemXML.Load()
}

// ParseQuery parses a transform query in surface syntax, e.g.
//
//	transform copy $a := doc("foo") modify do delete $a//price return $a
//	transform copy $a := doc("foo") modify
//	    do insert <supplier><sname>HP</sname></supplier> into $a//part
//	    return $a
//
// The embedded update forms are: "insert ELEM into $v/p", "delete $v/p",
// "replace $v/p with ELEM" and "rename $v/p as label", where ELEM is a
// literal XML element and p an expression of the fragment X. Failures are
// reported as *xerr.Error with kind Parse and a byte offset into the
// (whitespace-trimmed) query text.
func ParseQuery(src string) (*Query, error) {
	p := &qscan{src: strings.TrimSpace(src)}
	s := p.src
	var err error
	if s, err = p.expectWord(s, "transform"); err != nil {
		return nil, err
	}
	if s, err = p.expectWord(s, "copy"); err != nil {
		return nil, err
	}
	varName, s, err := p.parseVar(s)
	if err != nil {
		return nil, err
	}
	if s, err = p.expectToken(s, ":="); err != nil {
		return nil, err
	}
	docArg, s, err := p.parseDocCall(s)
	if err != nil {
		return nil, err
	}
	if s, err = p.expectWord(s, "modify"); err != nil {
		return nil, err
	}
	if s, err = p.expectWord(s, "do"); err != nil {
		return nil, err
	}
	u, s, err := p.parseUpdate(s, varName)
	if err != nil {
		return nil, err
	}
	if s, err = p.expectWord(s, "return"); err != nil {
		return nil, err
	}
	retVar, s, err := p.parseVar(s)
	if err != nil {
		return nil, err
	}
	if retVar != varName {
		return nil, p.errAt(s, "core: return variable $%s does not match copied $%s", retVar, varName)
	}
	if strings.TrimSpace(s) != "" {
		return nil, p.errAt(s, "core: trailing input after transform query: %q", strings.TrimSpace(s))
	}
	q := &Query{Var: varName, Doc: docArg, Update: *u}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParseQuery parses src and panics on error; for tests and examples.
func MustParseQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// qscan threads the full query text through the parse helpers so every
// error can report its byte offset. The helpers receive and return
// suffixes of src; the offset of a failure is src's length minus the
// remaining suffix's.
type qscan struct {
	src string
}

// errAt builds a Parse error positioned at the start of the remaining
// input rest, which must be a suffix of p.src.
func (p *qscan) errAt(rest, format string, args ...any) *xerr.Error {
	off := len(p.src) - len(rest)
	if off < 0 {
		off = 0
	}
	return xerr.New(xerr.Parse, fmt.Sprintf("offset %d", off), format, args...)
}

func (p *qscan) expectWord(s, word string) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, word) {
		return "", p.errAt(s, "core: expected %q at %q", word, truncate(s))
	}
	rest := s[len(word):]
	if rest != "" && !isWordBreak(rest[0]) {
		return "", p.errAt(s, "core: expected %q at %q", word, truncate(s))
	}
	return rest, nil
}

func isWordBreak(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '$' || c == '<' || c == '(' || c == ':'
}

func (p *qscan) expectToken(s, tok string) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, tok) {
		return "", p.errAt(s, "core: expected %q at %q", tok, truncate(s))
	}
	return s[len(tok):], nil
}

func (p *qscan) parseVar(s string) (string, string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "$") {
		return "", "", p.errAt(s, "core: expected a variable at %q", truncate(s))
	}
	i := 1
	for i < len(s) && (s[i] == '_' || s[i] >= 'a' && s[i] <= 'z' || s[i] >= 'A' && s[i] <= 'Z' || s[i] >= '0' && s[i] <= '9') {
		i++
	}
	if i == 1 {
		return "", "", p.errAt(s, "core: empty variable name at %q", truncate(s))
	}
	return s[1:i], s[i:], nil
}

func (p *qscan) parseDocCall(s string) (string, string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "doc(") {
		return "", "", p.errAt(s, "core: expected doc(...) at %q", truncate(s))
	}
	s = s[len("doc("):]
	s = strings.TrimSpace(s)
	if s == "" || (s[0] != '"' && s[0] != '\'') {
		return "", "", p.errAt(s, "core: doc() argument must be a quoted string")
	}
	quote := s[0]
	end := strings.IndexByte(s[1:], quote)
	if end < 0 {
		return "", "", p.errAt(s, "core: unterminated doc() argument")
	}
	arg := s[1 : 1+end]
	s = strings.TrimSpace(s[2+end:])
	if !strings.HasPrefix(s, ")") {
		return "", "", p.errAt(s, "core: expected ')' after doc() argument")
	}
	return arg, s[1:], nil
}

func (p *qscan) parseUpdate(s, varName string) (*Update, string, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "insert"):
		s = s[len("insert"):]
		elem, rest, err := p.parseElem(s)
		if err != nil {
			return nil, "", err
		}
		if rest, err = p.expectWord(rest, "into"); err != nil {
			return nil, "", err
		}
		path, rest, err := p.parseVarPath(rest, varName)
		if err != nil {
			return nil, "", err
		}
		return &Update{Op: Insert, Path: path, Elem: elem}, rest, nil
	case strings.HasPrefix(s, "delete"):
		path, rest, err := p.parseVarPath(s[len("delete"):], varName)
		if err != nil {
			return nil, "", err
		}
		return &Update{Op: Delete, Path: path}, rest, nil
	case strings.HasPrefix(s, "replace"):
		path, rest, err := p.parseVarPath(s[len("replace"):], varName)
		if err != nil {
			return nil, "", err
		}
		if rest, err = p.expectWord(rest, "with"); err != nil {
			return nil, "", err
		}
		elem, rest, err := p.parseElem(rest)
		if err != nil {
			return nil, "", err
		}
		return &Update{Op: Replace, Path: path, Elem: elem}, rest, nil
	case strings.HasPrefix(s, "rename"):
		path, rest, err := p.parseVarPath(s[len("rename"):], varName)
		if err != nil {
			return nil, "", err
		}
		if rest, err = p.expectWord(rest, "as"); err != nil {
			return nil, "", err
		}
		rest = strings.TrimSpace(rest)
		i := 0
		for i < len(rest) && !isWordBreak(rest[i]) {
			i++
		}
		if i == 0 {
			return nil, "", p.errAt(rest, "core: rename requires a label")
		}
		return &Update{Op: Rename, Path: path, Label: rest[:i]}, rest[i:], nil
	default:
		return nil, "", p.errAt(s, "core: expected an update (insert/delete/replace/rename) at %q", truncate(s))
	}
}

// parseVarPath parses "$v/path" or "$v//path".
func (p *qscan) parseVarPath(s, varName string) (*xpath.Path, string, error) {
	v, rest, err := p.parseVar(s)
	if err != nil {
		return nil, "", err
	}
	if v != varName {
		return nil, "", p.errAt(s, "core: update path uses $%s, query copies $%s", v, varName)
	}
	rest = strings.TrimLeft(rest, " \t\n\r")
	if !strings.HasPrefix(rest, "/") {
		return nil, "", p.errAt(rest, "core: expected a path after $%s", varName)
	}
	// The path extends to the next top-level keyword (return/into/with/as)
	// or end of string; paths cannot contain those words outside string
	// literals, so scan with quote awareness.
	end := pathEnd(rest)
	expr := strings.TrimSpace(rest[:end])
	path, err := xpath.Parse(expr)
	if err != nil {
		return nil, "", p.wrapPathErr(rest, err)
	}
	return path, rest[end:], nil
}

// wrapPathErr re-positions an xpath syntax error relative to the whole
// query: the path's offset within the query plus the error's offset within
// the path.
func (p *qscan) wrapPathErr(rest string, err error) error {
	off := len(p.src) - len(rest)
	if off < 0 {
		off = 0
	}
	var se *xpath.SyntaxError
	if errors.As(err, &se) {
		return &xerr.Error{
			Kind: xerr.Parse,
			Pos:  fmt.Sprintf("offset %d", off+se.Pos),
			Msg:  se.Error(),
			Err:  err,
		}
	}
	return &xerr.Error{Kind: xerr.Parse, Pos: fmt.Sprintf("offset %d", off), Err: err}
}

// pathEnd returns the index where the path expression ends: the first
// keyword boundary (" return", " with", " as", " into") outside quotes.
func pathEnd(s string) int {
	inQuote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			continue
		}
		if c == '"' || c == '\'' {
			inQuote = c
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			rest := strings.TrimLeft(s[i:], " \t\n\r")
			for _, kw := range []string{"return", "with", "as", "into"} {
				if strings.HasPrefix(rest, kw) {
					tail := rest[len(kw):]
					if tail == "" || isWordBreak(tail[0]) || tail[0] == '/' {
						return i
					}
				}
			}
		}
	}
	return len(s)
}

// parseElem parses a literal XML element from the head of s and returns it
// with the unconsumed remainder.
func (p *qscan) parseElem(s string) (*tree.Node, string, error) {
	s2 := strings.TrimLeft(s, " \t\n\r")
	if !strings.HasPrefix(s2, "<") {
		return nil, "", p.errAt(s2, "core: expected a literal XML element at %q", truncate(s2))
	}
	end, err := elemEnd(s2)
	if err != nil {
		return nil, "", p.errAt(s2, "core: %v", err)
	}
	doc, err := sax.ParseString(s2[:end])
	if err != nil {
		return nil, "", p.errAt(s2, "core: invalid constant element: %v", err)
	}
	root := doc.Root()
	if root == nil {
		return nil, "", p.errAt(s2, "core: constant element is empty")
	}
	return root, s2[end:], nil
}

// elemEnd scans a balanced XML element and returns the index just past it.
func elemEnd(s string) (int, error) {
	depth := 0
	i := 0
	for i < len(s) {
		c := s[i]
		switch c {
		case '<':
			if strings.HasPrefix(s[i:], "<!--") {
				end := strings.Index(s[i:], "-->")
				if end < 0 {
					return 0, errors.New("unterminated comment in constant element")
				}
				i += end + 3
				continue
			}
			closing := i+1 < len(s) && s[i+1] == '/'
			// Scan to the matching '>' with quote awareness.
			j := i + 1
			inQuote := byte(0)
			selfClose := false
			for j < len(s) {
				cj := s[j]
				if inQuote != 0 {
					if cj == inQuote {
						inQuote = 0
					}
					j++
					continue
				}
				if cj == '"' || cj == '\'' {
					inQuote = cj
					j++
					continue
				}
				if cj == '>' {
					selfClose = s[j-1] == '/'
					break
				}
				j++
			}
			if j >= len(s) {
				return 0, errors.New("unterminated tag in constant element")
			}
			switch {
			case closing:
				depth--
			case selfClose:
				// depth unchanged
			default:
				depth++
			}
			i = j + 1
			if depth == 0 {
				return i, nil
			}
			if depth < 0 {
				return 0, errors.New("unbalanced end tag in constant element")
			}
		default:
			i++
		}
	}
	return 0, errors.New("unterminated constant element")
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
