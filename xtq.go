// Package xtq is a Go implementation of transform queries — "Querying XML
// with Update Syntax" (Fan, Cong & Bohannon, SIGMOD 2007).
//
// A transform query uses XML update syntax to define a side-effect-free
// query: it returns the tree that an update *would* produce, without
// touching the source document.
//
// # Engine and Prepared
//
// The entry points are Engine and Prepared, shaped like database/sql: a
// long-lived engine compiles queries once (query text → selecting NFA →
// qualifier list, §3.4) and hands out reusable, goroutine-safe prepared
// statements, with an LRU cache absorbing repeated Prepare calls:
//
//	eng := xtq.NewEngine(xtq.WithMethod(xtq.MethodTopDown))
//	p, err := eng.Prepare(`transform copy $a := doc("parts") modify
//	                       do delete $a//price return $a`)
//	doc, err := xtq.ParseString(`<db><part><price>9</price></part></db>`)
//	view, err := p.Eval(ctx, doc)
//
// Inputs are unified behind Source (a *Node, FileSource, BytesSource,
// FromString, FromReader all qualify) and streaming output behind Sink:
//
//	res, err := p.EvalStream(ctx, xtq.FileSource("big.xml"), xtq.ToWriter(out))
//
// Every method takes a context.Context; cancellation aborts in-memory
// evaluation at node granularity and streaming evaluation at SAX-event
// granularity. Failures are *Error values classified by kind
// (parse/compile/eval/io) — see Error.
//
// # Views
//
// A View is a stack of transform queries defining a virtual document —
// the §4 machinery behind hypothetical states, virtual updated views and
// security views, generalized to the layered compositions those
// applications imply (a security view over a virtual update over a
// hypothetical state). User queries prepared against a view evaluate in
// a single pass over the source document; no layer is ever materialized:
//
//	v, err := eng.View(
//	    `transform copy $a := doc("d") modify do insert <audit/> into $a/db/part return $a`,
//	    `transform copy $a := doc("d") modify do delete $a/db/part/price return $a`,
//	)
//	pv, err := v.Prepare(`for $x in /db/part return <row>{$x/pname}</row>`)
//	res, stats, err := pv.Eval(ctx, xtq.FileSource("db.xml"))
//
// PreparedView is goroutine-safe (statistics come back by value, one
// LayerStats per transform layer) and composition plans are cached on
// the engine keyed by (view stack, user query).
//
// # Store
//
// A Store turns update syntax into the write path of a live corpus: it
// holds named documents as immutable versioned snapshots, commits XQU
// update queries copy-on-write with optimistic versioning (KindConflict
// on a lost ApplyAt race), and hands readers lock-free Snapshot handles
// that any Prepared or PreparedView evaluates against:
//
//	st := xtq.NewStore(eng)
//	_, _, err := st.Put(ctx, "parts", xtq.FileSource("parts.xml"))
//	snap, com, err := st.Apply(ctx, "parts",
//	    `transform copy $a := doc("parts") modify do delete $a//price return $a`)
//
// OpenStore builds the same store backed by a write-ahead log of
// logical update records — because commits are already update queries,
// the log stores their canonical text and recovery replays them through
// the engine: crash safety, snapshot checkpoints and time travel
// (Store.SnapshotAt) on top of the paper's own syntax.
//
// cmd/xtqd serves a Store over HTTP: ingest, queries, conditional
// updates, registered view stacks and versioned time-travel reads, with
// per-request timeouts and streamed responses; -wal makes it durable.
//
// # The paper's machinery
//
//   - four in-memory evaluation methods (Naive rewriting, the NFA-guided
//     topDown, the twoPass bottomUp+topDown combination, and a
//     copy-and-update baseline) behind one Method switch;
//   - a streaming twoPassSAX evaluator (Prepared.EvalStream, §6) that
//     handles documents far larger than memory in O(depth) space;
//   - composition of user queries with stacks of transform queries
//     (Engine.View, §4), the basis for querying hypothetical states,
//     virtual updated views and security views without materializing them;
//   - the XMark-like workload generator behind the root benchmarks that
//     regenerate the paper's Figures 12-15 (go test -bench 'Fig1[2-5]').
//
// All types are aliases of the implementation packages under internal/,
// so values flow freely between this facade and the benchmarks.
package xtq

import (
	"context"
	"io"

	"xtq/internal/core"
	"xtq/internal/sax"
	"xtq/internal/saxeval"
	"xtq/internal/tree"
	"xtq/internal/xmark"
	"xtq/internal/xpath"
	"xtq/internal/xquery"
)

// Node is one node of an XML document tree.
type Node = tree.Node

// Attr is an element attribute.
type Attr = tree.Attr

// Query is a parsed transform query.
type Query = core.Query

// Compiled is a transform query with its selecting NFA built.
type Compiled = core.Compiled

// Method selects an evaluation algorithm.
type Method = core.Method

// Evaluation methods, named as in the paper's experiments.
const (
	// MethodNaive is the rewriting-based method of §3.1 ("NAIVE").
	MethodNaive = core.MethodNaive
	// MethodTopDown is the automaton-guided method of §3.3 ("GENTOP").
	MethodTopDown = core.MethodTopDown
	// MethodTwoPass is bottomUp + topDown of §5 ("TD-BU").
	MethodTwoPass = core.MethodTwoPass
	// MethodCopyUpdate is the snapshot baseline ("GalaXUpdate").
	MethodCopyUpdate = core.MethodCopyUpdate
	// MethodAuto asks the cost-based planner to pick one of the
	// concrete methods per (query, document) from the document's
	// statistics; ?explain=1 (and obs.Trace.Plan) report the choice
	// with its estimates.
	MethodAuto = core.MethodAuto
	// Auto is shorthand for MethodAuto: NewEngine(WithMethod(Auto)).
	Auto = core.MethodAuto
)

// Methods lists the in-memory evaluation methods.
func Methods() []Method { return core.Methods() }

// MethodNames lists the method names as strings, for flag help text.
func MethodNames() []string { return core.MethodNames() }

// ParseMethod validates a method name before any input is touched,
// returning a KindEval error naming the valid methods when it is unknown.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// UserQuery is a for/where/return query in the restricted form of §4.
type UserQuery = xquery.UserQuery

// Path is a parsed expression of the XPath fragment X.
type Path = xpath.Path

// Parse reads an XML document from r. Well-formedness violations
// classify as KindParse (with their line:col position); reader failures
// classify as KindIO.
func Parse(r io.Reader) (*Node, error) {
	n, err := sax.Parse(r)
	if err != nil {
		return nil, classify(err, KindIO)
	}
	return n, nil
}

// ParseString parses an XML document from a string.
func ParseString(s string) (*Node, error) {
	n, err := sax.ParseString(s)
	if err != nil {
		// A string source cannot fail mid-read: every error here is a
		// well-formedness violation.
		return nil, classify(err, KindParse)
	}
	return n, nil
}

// defaultEngine backs ParseFile, which has no engine of its own to
// take parse options from.
var defaultEngine = NewEngine()

// ParseFile parses the XML document in the named file.
func ParseFile(path string) (*Node, error) {
	return defaultEngine.parse(context.Background(), FileSource(path))
}

// ParseQuery parses a transform query in the W3C draft surface syntax,
// e.g. `transform copy $a := doc("f") modify do delete $a//price return $a`.
func ParseQuery(src string) (*Query, error) {
	q, err := core.ParseQuery(src)
	if err != nil {
		return nil, classify(err, KindParse)
	}
	return q, nil
}

// ParsePath parses an expression of the XPath fragment X.
func ParsePath(src string) (*Path, error) {
	p, err := xpath.Parse(src)
	if err != nil {
		return nil, classify(err, KindParse)
	}
	return p, nil
}

// ParseUserQuery parses a user query, e.g.
// `for $x in /site/people/person where $x/profile/age > 20 return $x/name`.
func ParseUserQuery(src string) (*UserQuery, error) {
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, classify(err, KindParse)
	}
	return q, nil
}

// StreamResult reports per-pass statistics of a streaming evaluation.
type StreamResult = saxeval.Result

// XMarkConfig parameterizes the workload generator.
type XMarkConfig = xmark.Config

// GenerateXMark builds an XMark-like document in memory.
func GenerateXMark(cfg XMarkConfig) (*Node, error) { return xmark.Generate(cfg) }

// WriteXMarkFile streams an XMark-like document to a file and reports its
// size in bytes; use it to produce inputs for streaming evaluation.
func WriteXMarkFile(cfg XMarkConfig, path string) (int64, error) {
	return xmark.WriteFile(cfg, path)
}
