package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"xtq"
	"xtq/internal/compose"
	"xtq/internal/core"
	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/xquery"
)

// oracle recomputes, in this process, what xtqd must have answered: the
// paper defines a transform query as "copy, then update, then return",
// and MethodCopyUpdate is that sentence executed literally. Every
// expected response is built from the generated document bytes with it
// — never with the evaluators or the store the server runs.
type oracle struct {
	run   *run
	bases map[int]*tree.Node // parsed base documents, by doc index
	view  []*core.Compiled
	seen  map[string][]byte // expected bytes by (kind, doc, text, after)

	mu sync.Mutex
	// commits maps (doc, version) to the `after` of the update whose
	// commit produced that version; version 1 is the base document.
	commits map[int]map[uint64]string
}

func newOracle(r *run) (*oracle, error) {
	o := &oracle{run: r, bases: map[int]*tree.Node{}, seen: map[string][]byte{},
		commits: map[int]map[uint64]string{}}
	for _, layer := range r.view {
		c, err := compileText(layer)
		if err != nil {
			return nil, err
		}
		o.view = append(o.view, c)
	}
	return o, nil
}

func compileText(text string) (*core.Compiled, error) {
	q, err := core.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return q.Compile()
}

// committed records that update req produced version of its document.
func (o *oracle) committed(req *request, version uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.commits[req.doc]
	if m == nil {
		m = map[uint64]string{}
		o.commits[req.doc] = m
	}
	m[version] = req.after
}

// stateAt returns the `after` text describing doc at version.
func (o *oracle) stateAt(doc int, version uint64) (string, bool) {
	if version == 1 {
		return "", true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	after, ok := o.commits[doc][version]
	return after, ok
}

// updatedDocs lists the documents that saw at least one commit.
func (o *oracle) updatedDocs() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []int
	for d := range o.commits {
		out = append(out, d)
	}
	return out
}

func copyUpdate(c *core.Compiled, doc *tree.Node) (*tree.Node, error) {
	return c.EvalContext(context.Background(), doc, core.MethodCopyUpdate)
}

// state rebuilds the document a request saw: the base document with
// `after` applied under reference semantics.
func (o *oracle) state(doc int, after string) (*tree.Node, error) {
	base := o.bases[doc]
	if base == nil {
		var err error
		if base, err = xtq.Parse(bytes.NewReader(o.run.docs[doc].xml)); err != nil {
			return nil, err
		}
		o.bases[doc] = base
	}
	if after == "" {
		return base, nil
	}
	c, err := compileText(after)
	if err != nil {
		return nil, err
	}
	return copyUpdate(c, base)
}

// emit serializes a result the way xtqd's writeResult does.
func emit(n *tree.Node) ([]byte, error) {
	var b bytes.Buffer
	sink := xtq.ToWriter(&b)
	if err := sax.Emit(n, sink.Handler()); err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// expected returns the bytes xtqd must answer req with when the
// document is in the state `after` describes.
func (o *oracle) expected(req *request, after string) ([]byte, error) {
	key := fmt.Sprintf("%d\x00%d\x00%s\x00%s", req.kind, req.doc, req.text, after)
	if b, ok := o.seen[key]; ok {
		return b, nil
	}
	doc, err := o.state(req.doc, after)
	if err != nil {
		return nil, err
	}
	var out []byte
	switch req.kind {
	case opQuery:
		c, err := compileText(req.text)
		if err != nil {
			return nil, err
		}
		res, err := copyUpdate(c, doc)
		if err != nil {
			return nil, err
		}
		out, err = emit(res)
		if err != nil {
			return nil, err
		}
	case opViewQuery:
		uq, err := xquery.Parse(req.text)
		if err != nil {
			return nil, err
		}
		plan, err := compose.NewPlan(o.view, uq)
		if err != nil {
			return nil, err
		}
		// Materialize every layer, then run the user query over the
		// final tree: the sequential baseline the composition replaces.
		res, err := plan.EvalSequential(context.Background(), doc, core.MethodCopyUpdate)
		if err != nil {
			return nil, err
		}
		if out, err = emit(res); err != nil {
			return nil, err
		}
	case opViewRead:
		for _, layer := range o.view {
			if doc, err = copyUpdate(layer, doc); err != nil {
				return nil, err
			}
		}
		if out, err = emit(doc); err != nil {
			return nil, err
		}
	case opGetDoc:
		var b bytes.Buffer
		if err := doc.WriteXML(&b); err != nil {
			return nil, err
		}
		out = b.Bytes()
	default:
		return nil, fmt.Errorf("oracle: no expected body for %s", req.kind)
	}
	// Large expected bodies repeat only on the table-driven workloads,
	// whose tables are small; the cache is bounded by the table size
	// there and by the sample count elsewhere.
	o.seen[key] = out
	return out, nil
}

// check compares one sampled response with the reference.
func (o *oracle) check(req *request, version uint64, body []byte) error {
	after, ok := o.stateAt(req.doc, version)
	if !ok {
		return fmt.Errorf("%s %s answered at version %d, which no acknowledged commit produced", req.kind, req.path, version)
	}
	want, err := o.expected(req, after)
	if err != nil {
		return fmt.Errorf("oracle: evaluating %s %s: %w", req.kind, req.path, err)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s %s at version %d: response (%d bytes) differs from the copy-update reference (%d bytes)",
			req.kind, req.path, version, len(body), len(want))
	}
	return nil
}
