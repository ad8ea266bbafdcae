package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"

	"xtq"
	"xtq/internal/core"
	"xtq/internal/ivm"
	"xtq/internal/obs"
	"xtq/internal/plan"
	"xtq/internal/sax"
	"xtq/internal/store"
	"xtq/internal/tree"
	"xtq/internal/wal"
)

// replaySample is the number of requests the in-process replay takes
// from the workload's generator.
const replaySample = 200

// countingDiscard counts the bytes a serializer produced.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// replayResult is what the in-process replay measured.
type replayResult struct {
	spans  []span
	values map[string]float64 // per-layer metrics that are not span medians
}

// replayer rebuilds the workload's documents in this process and calls
// each layer's public functions in the order xtqd's handlers do,
// recording one span per call. It runs on one goroutine.
type replayer struct {
	run *run
	rec *recorder
	st  *store.Store
	mgr *ivm.Manager
	eng *xtq.Engine
	vw  *xtq.View
	ctx context.Context

	// chainRoot/chainIx are a private version chain of document 0 on
	// which tree.PathCopy is timed in isolation, advanced exactly as the
	// store advances its own.
	chainRoot *tree.Node
	chainIx   *tree.Index

	log *wal.Log

	req                    int
	emitBytes, emitNS      int64
	visited, composeVisits []float64
	allocs                 []float64
}

// replayInProcess runs the replay for r, which must be a fresh
// instance (its request sources are consumed). scratch holds the WAL
// the durable workloads append to.
func replayInProcess(r *run, scratch string) (*replayResult, error) {
	p := &replayer{run: r, rec: newRecorder(), st: store.New(), ctx: context.Background(),
		eng: xtq.NewEngine(xtq.WithMethod(xtq.MethodAuto))}
	res := &replayResult{values: map[string]float64{}}

	// Ingest: parse and freeze are what PUT /docs pays per document.
	var parseBytes, parseNS int64
	reps := 1
	if len(r.docs) == 1 {
		reps = 5
	}
	for i, d := range r.docs {
		for rep := 0; rep < reps; rep++ {
			var doc *tree.Node
			var err error
			id := p.rec.begin("sax.parse", -1)
			doc, err = xtq.Parse(bytes.NewReader(d.xml))
			p.rec.end(id)
			if err != nil {
				return nil, err
			}
			parseBytes += int64(len(d.xml))
			parseNS += p.rec.spans[id].EndNS - p.rec.spans[id].StartNS
			var root *tree.Node
			var ix *tree.Index
			p.rec.time("tree.freeze", -1, func() { root, ix, _ = tree.Freeze(doc, nil) })
			if rep < reps-1 {
				continue
			}
			if i == 0 {
				p.chainRoot, p.chainIx = root, ix
			}
			if _, _, err := p.st.Put(d.name, doc, true); err != nil {
				return nil, err
			}
		}
	}
	res.values["sax.parse_mb_per_s"] = mbPerS(parseBytes, parseNS)

	if len(r.view) > 0 {
		var layers []*core.Compiled
		for _, text := range r.view {
			c, err := compileText(text)
			if err != nil {
				return nil, err
			}
			layers = append(layers, c)
		}
		p.mgr = ivm.NewManager(core.MethodTopDown, nil)
		p.mgr.SetView(viewName, layers, true)
		p.st.SetCommitHook(func(ev store.CommitEvent) {
			p.rec.time("ivm.oncommit", p.req, func() { p.mgr.OnCommit(ev) })
		})
		var err error
		if p.vw, err = p.eng.View(r.view...); err != nil {
			return nil, err
		}
	}
	if r.durable {
		var err error
		if p.log, err = wal.Open(filepath.Join(scratch, "replay-wal"), wal.Options{Fsync: wal.FsyncNone}); err != nil {
			return nil, err
		}
		defer p.log.Close()
	}

	for _, req := range sampleRequests(r, replaySample) {
		if err := p.replay(req); err != nil {
			return nil, fmt.Errorf("replaying %s %s: %w", req.kind, req.path, err)
		}
		p.req++
	}

	res.spans = p.rec.spans
	res.values["sax.emit_mb_per_s"] = mbPerS(p.emitBytes, p.emitNS)
	res.values["core.nodes_visited"] = median(p.visited)
	res.values["compose.nodes_visited"] = median(p.composeVisits)
	res.values["core.eval_allocs"] = median(p.allocs)
	return res, nil
}

func mbPerS(bytes, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (float64(ns) / 1e9)
}

// sampleRequests draws n requests from the run's sources in equal
// parts, in the order a window would interleave them.
func sampleRequests(r *run, n int) []*request {
	var sources []source
	phases := r.phases
	if r.probe != nil {
		phases = append(phases[:len(phases):len(phases)], *r.probe)
	}
	for _, p := range phases {
		if p.rate > 0 {
			sources = append(sources, p.open)
		}
		sources = append(sources, p.actors...)
	}
	out := make([]*request, 0, n)
	for len(out) < n {
		for _, next := range sources {
			out = append(out, next())
		}
	}
	return out
}

func (p *replayer) emit(n *tree.Node) error {
	var cd countingDiscard
	id := p.rec.begin("sax.emit", p.req)
	w := sax.NewWriter(&cd)
	err := sax.Emit(n, w)
	if err == nil {
		err = w.Flush()
	}
	p.rec.end(id)
	p.emitBytes += cd.n
	p.emitNS += p.rec.spans[id].EndNS - p.rec.spans[id].StartNS
	return err
}

// compile times parse and compile apart, outside any request span: on
// a cache hit neither runs, and engine.prepare below shows the mix the
// workload really has.
func (p *replayer) compile(text string) (*core.Compiled, error) {
	var q *core.Query
	var c *core.Compiled
	var err error
	p.rec.time("core.parse_query", p.req, func() { q, err = core.ParseQuery(text) })
	if err != nil {
		return nil, err
	}
	p.rec.time("core.compile", p.req, func() { c, err = q.Compile() })
	return c, err
}

func (p *replayer) replay(req *request) error {
	name := p.run.docs[req.doc].name
	snap, err := p.st.Snapshot(name)
	if err != nil {
		return err
	}
	switch req.kind {
	case opQuery:
		c, err := p.compile(req.text)
		if err != nil {
			return err
		}
		tr := obs.NewTrace()
		ctx := obs.WithTrace(p.ctx, tr)
		root := p.rec.begin("request.query", p.req)
		p.rec.time("engine.prepare", p.req, func() { _, err = p.eng.Prepare(req.text) })
		if err == nil {
			p.rec.time("plan.choose", p.req, func() { plan.Choose(c, snap.Index()) })
			var out *tree.Node
			p.rec.time("core.eval", p.req, func() { out, err = c.EvalContext(ctx, snap.Root(), core.MethodTopDown) })
			if err == nil {
				err = p.emit(out)
			}
		}
		p.rec.end(root)
		if err != nil {
			return err
		}
		p.visited = append(p.visited, float64(tr.NodesVisited()))
		// The text is cached now whatever it was before: a certain hit.
		p.rec.time("engine.prepare_hit", p.req, func() { p.eng.Prepare(req.text) })
		if len(p.allocs) < 20 {
			// Allocation counts come from a second, unspanned evaluation:
			// ReadMemStats stops the world and must not sit inside a span.
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c.EvalContext(p.ctx, snap.Root(), core.MethodTopDown)
			runtime.ReadMemStats(&m1)
			p.allocs = append(p.allocs, float64(m1.Mallocs-m0.Mallocs))
		}
	case opViewQuery:
		root := p.rec.begin("request.view_query", p.req)
		defer p.rec.end(root)
		var pv *xtq.PreparedView
		p.rec.time("compose.prepare", p.req, func() { pv, err = p.vw.Prepare(req.text) })
		if err != nil {
			return err
		}
		var out *tree.Node
		var vs xtq.ViewStats
		p.rec.time("compose.eval", p.req, func() { out, vs, err = pv.Eval(p.ctx, snap) })
		if err != nil {
			return err
		}
		p.composeVisits = append(p.composeVisits, float64(vs.NodesVisited))
		return p.emit(out)
	case opViewRead:
		root := p.rec.begin("request.view_read", p.req)
		defer p.rec.end(root)
		var out *tree.Node
		p.rec.time("ivm.get", p.req, func() { out, _, err = p.mgr.Get(p.ctx, snap, viewName) })
		if err != nil {
			return err
		}
		return p.emit(out)
	case opGetDoc:
		root := p.rec.begin("request.get_doc", p.req)
		defer p.rec.end(root)
		p.rec.time("tree.writexml", p.req, func() { err = snap.WriteXML(io.Discard) })
		return err
	case opUpdate:
		c, err := p.compile(req.text)
		if err != nil {
			return err
		}
		root := p.rec.begin("request.update", p.req)
		p.rec.time("engine.prepare", p.req, func() { _, err = p.eng.Prepare(req.text) })
		if err == nil {
			p.rec.time("store.apply", p.req, func() { _, _, err = p.st.Apply(p.ctx, name, c, core.MethodAuto) })
		}
		p.rec.end(root)
		if err != nil {
			return err
		}
		if req.doc == 0 {
			out, err := c.EvalContext(p.ctx, p.chainRoot, core.MethodTopDown)
			if err != nil {
				return err
			}
			if out != p.chainRoot {
				p.rec.time("tree.pathcopy", p.req, func() { p.chainRoot, p.chainIx, _ = tree.PathCopy(out, p.chainIx) })
			}
		}
		if p.log != nil {
			rec := &wal.Record{Kind: wal.KindUpdate, Name: name, Version: snap.Version() + 1,
				Base: snap.Version(), Query: c.Query.String()}
			p.rec.time("wal.append", p.req, func() { _, err = p.log.Append(rec) })
			if err != nil {
				return err
			}
			p.rec.time("wal.fsync", p.req, func() { err = p.log.Sync() })
			return err
		}
	}
	return nil
}
