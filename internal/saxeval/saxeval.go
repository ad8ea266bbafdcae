package saxeval

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"xtq/internal/core"
	"xtq/internal/sax"
	"xtq/internal/xerr"
)

// Source provides independent sequential reads of one XML document. The
// two-pass algorithm parses the document twice, so plain io.Readers are
// not sufficient.
type Source interface {
	Open() (io.ReadCloser, error)
}

// FileSource reads the document from a file path; this is the intended
// production configuration for documents too large for a DOM.
type FileSource string

// Open implements Source.
func (p FileSource) Open() (io.ReadCloser, error) { return os.Open(string(p)) }

// BytesSource serves the document from memory; convenient for tests and
// for moderately sized inputs.
type BytesSource []byte

// Open implements Source.
func (b BytesSource) Open() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(b)), nil
}

// Result carries the per-pass resource statistics of a transform run.
type Result struct {
	First  Stats
	Second Stats
	// QualOccurrences is the length of the qualifier-truth list L_d.
	QualOccurrences int
}

// parseWith runs one SAX pass of src into h, honouring ctx at event
// granularity, and classifies the failure modes the pass can hit: source
// open errors are IO, well-formedness violations are Parse (with the
// line:col position), cancellations are Eval wrapping the context error.
func parseWith(ctx context.Context, src Source, h sax.Handler) error {
	r, err := src.Open()
	if err != nil {
		return xerr.Wrap(xerr.IO, err)
	}
	defer r.Close()
	return classify(sax.NewParser(r, sax.WithCancel(ctx, h)).Parse())
}

// classify maps a pass error onto the module's error taxonomy. Errors that
// are already typed — including handler errors that bubbled through the
// parser — pass through unchanged.
func classify(err error) error {
	if err == nil {
		return nil
	}
	var pe *sax.ParseError
	if errors.As(err, &pe) {
		return &xerr.Error{
			Kind: xerr.Parse,
			Pos:  fmt.Sprintf("%d:%d", pe.Line, pe.Col),
			Msg:  pe.Msg,
			Err:  err,
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return xerr.Wrap(xerr.Eval, err)
	}
	return err
}

// Transform evaluates the compiled transform query over src with two SAX
// passes, streaming the result into out. Memory use is bounded by the
// document depth (stack entries) plus the qualifier-truth list.
func Transform(c *core.Compiled, src Source, out sax.Handler) (Result, error) {
	return TransformContext(context.Background(), c, src, out)
}

// TransformContext is Transform honouring ctx: cancelling it aborts
// either pass at SAX-event granularity, so a multi-gigabyte document
// stops streaming within a few events of the cancellation.
func TransformContext(ctx context.Context, c *core.Compiled, src Source, out sax.Handler) (Result, error) {
	var res Result
	// The passes poll cancellation every few events, which a small
	// document may never reach; checking up front makes an
	// already-cancelled context fail deterministically.
	if ctx != nil && ctx.Err() != nil {
		return res, xerr.Wrap(xerr.Eval, ctx.Err())
	}
	ld, st1, err := runFirstPass(c, func(h sax.Handler) error { return parseWith(ctx, src, h) })
	if err != nil {
		return res, err
	}
	res.First = st1
	res.QualOccurrences = len(ld.Values)
	st2, err := runSecondPass(c, ld, out, func(h sax.Handler) error { return parseWith(ctx, src, h) })
	res.Second = st2
	return res, err
}

// TransformXML runs Transform and serializes the result to w as XML.
func TransformXML(c *core.Compiled, src Source, w io.Writer) (Result, error) {
	return TransformXMLContext(context.Background(), c, src, w)
}

// TransformXMLContext is TransformXML honouring ctx.
func TransformXMLContext(ctx context.Context, c *core.Compiled, src Source, w io.Writer) (Result, error) {
	sw := sax.NewWriter(w)
	res, err := TransformContext(ctx, c, src, sw)
	if err == nil {
		err = sw.Flush()
	}
	// Untyped here means the writer's own error, surfaced mid-pass.
	return res, xerr.Wrap(xerr.IO, err)
}
