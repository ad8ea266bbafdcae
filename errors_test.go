package xtq

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const validQuery = `transform copy $a := doc("d") modify do delete $a//price return $a`

// TestEvalStreamPreservesKinds is the regression test for EvalStream's
// error classification: its fallback kind is KindIO (sinks and readers),
// but typed failures from inside the two passes must keep their own kind
// — a malformed document stays KindParse (with its position), a
// cancellation stays KindEval — instead of being blanket-classified.
func TestEvalStreamPreservesKinds(t *testing.T) {
	eng := NewEngine()
	p := mustPrepare(t, eng, validQuery)

	// Malformed document: the well-formedness violation detected inside
	// the first pass surfaces as KindParse, not as the KindIO fallback.
	_, err := p.EvalStream(context.Background(), FromString("<db>\n<part></db>"), Discard())
	var xe *Error
	if !errors.As(err, &xe) || xe.Kind != KindParse {
		t.Errorf("malformed document through EvalStream: kind = %v, want parse (err %v)", kindOf(err), err)
	} else if xe.Pos == "" {
		t.Errorf("parse error lost its position: %v", err)
	}

	// Cancellation inside the transform: KindEval, identity preserved.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = p.EvalStream(cancelled, FromString("<db><part><price>9</price></part></db>"), Discard())
	if !errors.As(err, &xe) || xe.Kind != KindEval || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled EvalStream: kind = %v, want eval wrapping context.Canceled (err %v)", kindOf(err), err)
	}

	// A source that cannot be opened is a genuine I/O failure.
	_, err = p.EvalStream(context.Background(), FileSource("/nonexistent/xtq-test.xml"), Discard())
	if !errors.As(err, &xe) || xe.Kind != KindIO {
		t.Errorf("unopenable source: kind = %v, want io (err %v)", kindOf(err), err)
	}
}

func kindOf(err error) ErrorKind {
	var xe *Error
	if errors.As(err, &xe) {
		return xe.Kind
	}
	return 0
}

// TestErrorTaxonomy drives every entry point into each failure mode and
// asserts the error carries the right Kind (and position, where the
// input has one) through errors.As.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine()

	cases := []struct {
		name    string
		run     func() error
		kind    ErrorKind
		wantPos bool
	}{
		{
			name: "malformed query",
			run: func() error {
				_, err := eng.Prepare("not a query")
				return err
			},
			kind:    KindParse,
			wantPos: true,
		},
		{
			name: "malformed path in query",
			run: func() error {
				_, err := eng.Prepare(`transform copy $a := doc("d") modify do delete $a/part[ return $a`)
				return err
			},
			kind:    KindParse,
			wantPos: true,
		},
		{
			name: "query outside the fragment",
			run: func() error {
				// An attribute step cannot be the target of an update.
				_, err := eng.Prepare(`transform copy $a := doc("d") modify do delete $a/part/@id return $a`)
				return err
			},
			kind: KindCompile,
		},
		{
			name: "malformed XML document",
			run: func() error {
				p := mustPrepare(t, eng, validQuery)
				_, err := p.Eval(ctx, FromString("<db>\n<part></db>"))
				return err
			},
			kind:    KindParse,
			wantPos: true,
		},
		{
			name: "malformed XML document in streaming",
			run: func() error {
				p := mustPrepare(t, eng, validQuery)
				_, err := p.EvalStream(ctx, FromString("<db><part></db>"), Discard())
				return err
			},
			kind:    KindParse,
			wantPos: true,
		},
		{
			name: "unknown method",
			run: func() error {
				_, err := NewEngine(WithMethod(Method("bogus"))).Prepare(validQuery)
				return err
			},
			kind: KindEval,
		},
		{
			name: "unknown method via ParseMethod",
			run: func() error {
				_, err := ParseMethod("bogus")
				return err
			},
			kind: KindEval,
		},
		{
			name: "cancelled context, in-memory",
			run: func() error {
				p := mustPrepare(t, eng, validQuery)
				_, err := p.Eval(cancelled, FromString("<db><price>1</price></db>"))
				return err
			},
			kind: KindEval,
		},
		{
			name: "cancelled context, streaming",
			run: func() error {
				p := mustPrepare(t, eng, validQuery)
				_, err := p.EvalStream(cancelled, FromString("<db><price>1</price></db>"), Discard())
				return err
			},
			kind: KindEval,
		},
		{
			name: "missing input file",
			run: func() error {
				p := mustPrepare(t, eng, validQuery)
				_, err := p.Eval(ctx, FileSource(t.TempDir()+"/missing.xml"))
				return err
			},
			kind: KindIO,
		},
		{
			name: "missing input file in streaming",
			run: func() error {
				p := mustPrepare(t, eng, validQuery)
				_, err := p.EvalStream(ctx, FileSource(t.TempDir()+"/missing.xml"), Discard())
				return err
			},
			kind: KindIO,
		},
		{
			name: "failing reader source",
			run: func() error {
				p := mustPrepare(t, eng, validQuery)
				_, err := p.Eval(ctx, FromReader(failingReader{}))
				return err
			},
			kind: KindIO,
		},
		{
			name: "store: missing document",
			run: func() error {
				_, err := NewStore(eng).Snapshot("nope")
				return err
			},
			kind: KindNotFound,
		},
		{
			name: "store: missing view",
			run: func() error {
				_, err := NewStore(eng).LookupView("nope")
				return err
			},
			kind: KindNotFound,
		},
		{
			name: "store: stale conditional commit",
			run: func() error {
				st := NewStore(eng)
				if _, _, err := st.Put(ctx, "d", FromString("<db><price>1</price></db>")); err != nil {
					return err
				}
				if _, _, err := st.Apply(ctx, "d", validQuery); err != nil {
					return err
				}
				_, _, err := st.ApplyAt(ctx, "d", validQuery, 1)
				return err
			},
			kind: KindConflict,
		},
		{
			name: "store: corrupt write-ahead log",
			run: func() error {
				dir := t.TempDir()
				// A garbled checkpoint file: behind an atomic rename this
				// can only be bit rot, so recovery must refuse, typed and
				// positioned.
				if err := os.WriteFile(filepath.Join(dir, "ckpt-0000000000000001.ckpt"),
					[]byte("this is not a checkpoint, it is corruption"), 0o644); err != nil {
					return err
				}
				_, err := OpenStore(dir, eng)
				return err
			},
			kind:    KindCorrupt,
			wantPos: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("no error")
			}
			var xe *Error
			if !errors.As(err, &xe) {
				t.Fatalf("error %v (%T) is not an *xtq.Error", err, err)
			}
			if xe.Kind != tc.kind {
				t.Errorf("kind = %v, want %v (err: %v)", xe.Kind, tc.kind, err)
			}
			if tc.wantPos && xe.Pos == "" {
				t.Errorf("no position in %v", err)
			}
		})
	}
}

// TestCancelledContextKeepsIdentity asserts that the typed wrapper does
// not hide the context error from errors.Is.
func TestCancelledContextKeepsIdentity(t *testing.T) {
	eng := NewEngine()
	p := mustPrepare(t, eng, validQuery)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Eval(ctx, FromString("<db/>"))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var xe *Error
	if !errors.As(err, &xe) || xe.Kind != KindEval {
		t.Errorf("cancelled eval not classified as KindEval: %v", err)
	}
}

// TestParseErrorPositions spot-checks that positions point into the
// input, not just that they exist.
func TestParseErrorPositions(t *testing.T) {
	_, err := ParseQuery(`transform copy $a := doc("d") modify do remove $a//p return $a`)
	var xe *Error
	if !errors.As(err, &xe) {
		t.Fatalf("not a typed error: %v", err)
	}
	// "remove" starts at offset 40 of the trimmed query.
	if xe.Pos != "offset 40" {
		t.Errorf("pos = %q, want offset 40 (err: %v)", xe.Pos, err)
	}

	_, err = ParseString("<db>\n  <part>oops</wrong>\n</db>")
	if !errors.As(err, &xe) {
		t.Fatalf("not a typed error: %v", err)
	}
	if !strings.HasPrefix(xe.Pos, "2:") {
		t.Errorf("pos = %q, want line 2 (err: %v)", xe.Pos, err)
	}
}

// TestErrorString covers the rendered form used in logs.
func TestErrorString(t *testing.T) {
	e := &Error{Kind: KindParse, Pos: "offset 3", Msg: "boom"}
	if got := e.Error(); got != "parse: offset 3: boom" {
		t.Errorf("Error() = %q", got)
	}
	e = &Error{Kind: KindIO, Err: errors.New("disk gone")}
	if got := e.Error(); got != "io: disk gone" {
		t.Errorf("Error() = %q", got)
	}
	for kind, name := range map[ErrorKind]string{
		KindParse: "parse", KindCompile: "compile", KindEval: "eval", KindIO: "io",
		KindNotFound: "notfound", KindConflict: "conflict", KindCorrupt: "corrupt",
	} {
		if kind.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", kind, kind.String(), name)
		}
	}
}

func mustPrepare(t *testing.T, eng *Engine, src string) *Prepared {
	t.Helper()
	p, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
