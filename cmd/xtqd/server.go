package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xtq"
	"xtq/internal/obs"
	"xtq/internal/sax"
	"xtq/internal/tree"
)

// server routes HTTP requests onto one xtq.Store. All handlers are
// stateless beyond the store and safe for concurrent use; every request
// runs under a per-request timeout and is aborted at node/SAX-event
// granularity when the client disconnects.
type server struct {
	st      *xtq.Store
	timeout time.Duration
	maxBody int64
	// fol is set in follower mode: the replication handle behind st.
	// Write requests then redirect to fol.Primary() until promotion, and
	// reads honour X-Xtq-Min-Version by waiting up to catchup for
	// replication before redirecting themselves.
	fol     *xtq.Follower
	catchup time.Duration
	// heartbeat is the SSE keep-alive interval of /watch streams.
	heartbeat time.Duration
	// slow is the -slow-query-ms threshold; zero disables the
	// slow-query log.
	slow time.Duration
}

// role reports the node's current role for /metrics and /healthz: a
// follower flips to primary when promoted.
func (s *server) role() string {
	if s.fol != nil && !s.fol.Stats().Promoted {
		return "follower"
	}
	return "primary"
}

// newServer serves st as a standalone node or replication primary: when
// st is durable its WAL feed is mounted under /wal for followers to
// tail.
func newServer(st *xtq.Store, timeout time.Duration, maxBody int64) http.Handler {
	return buildServer(st, nil, timeout, maxBody, 0, 0, 0)
}

// newFollowerServer serves a follower replica: lock-free reads with
// read-your-writes waiting (bounded by catchup), writes redirected to
// the primary, and POST /admin/promote for failover.
func newFollowerServer(fol *xtq.Follower, timeout time.Duration, maxBody int64, catchup time.Duration) http.Handler {
	return buildServer(fol.Store(), fol, timeout, maxBody, catchup, 0, 0)
}

func buildServer(st *xtq.Store, fol *xtq.Follower, timeout time.Duration, maxBody int64, catchup, heartbeat, slow time.Duration) http.Handler {
	s := &server{st: st, timeout: timeout, maxBody: maxBody, fol: fol, catchup: catchup,
		heartbeat: heartbeat, slow: slow}
	mux := http.NewServeMux()
	// handle registers a route behind the metrics middleware; the
	// pattern doubles as the route label of the request metrics.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, instrument(pattern, s.slow, h))
	}
	if h := st.ReplicationHandler(); h != nil {
		mux.Handle("/wal/", instrument("/wal/", 0, http.StripPrefix("/wal", h)))
	}
	if fol != nil {
		handle("POST /admin/promote", s.handlePromote)
	}
	// /metrics stays outside the middleware: scrapes should not show up
	// in the request metrics they read.
	mux.HandleFunc("GET /metrics", serveMetrics(s.role, st))
	handle("GET /healthz", s.handleHealth)
	handle("GET /docs", s.handleListDocs)
	handle("PUT /docs/{name}", s.handlePutDoc)
	handle("GET /docs/{name}", s.handleGetDoc)
	handle("GET /docs/{name}/history", s.handleHistory)
	handle("DELETE /docs/{name}", s.handleDeleteDoc)
	handle("POST /docs/{name}/query", s.handleQuery)
	handle("POST /docs/{name}/update", s.handleUpdate)
	handle("GET /docs/{name}/views/{view}", s.handleDocView)
	handle("GET /docs/{name}/watch", s.handleWatch)
	handle("GET /views", s.handleListViews)
	handle("PUT /views/{view}", s.handlePutView)
	handle("DELETE /views/{view}", s.handleDeleteView)
	return mux
}

// ctx derives the per-request evaluation context: the client
// disconnecting or the server timeout elapsing cancels the in-flight
// parse/evaluation promptly.
func (s *server) ctx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// docMeta is the JSON shape of one document in listings and write
// responses.
type docMeta struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Nodes   int    `json:"nodes"`
}

// commitMeta is the JSON shape of a successful write.
type commitMeta struct {
	docMeta
	CopiedNodes    int   `json:"copied_nodes"`
	CopiedBytes    int64 `json:"copied_bytes"`
	SharedWithPrev int   `json:"shared_with_prev,omitempty"`
}

// commitJSON builds the write-response body from the request trace's
// commit section — the store's apply path fills it, and the put handler
// seeds it from the Commit value — falling back to the Commit value
// directly for writes outside a traced context. The trace is the one
// source the response JSON, EXPLAIN and the slow-query log all read.
func commitJSON(ctx context.Context, name string, snap *xtq.Snapshot, com xtq.Commit) commitMeta {
	meta := commitMeta{
		docMeta:        docMeta{Name: name, Version: com.Version, Nodes: snap.NumNodes()},
		CopiedNodes:    com.CopiedNodes,
		CopiedBytes:    com.CopiedBytes,
		SharedWithPrev: com.SharedWithPrev,
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		if ct := tr.Commit(); ct != nil {
			meta.Version = ct.Version
			meta.CopiedNodes = ct.CopiedNodes
			meta.CopiedBytes = ct.CopiedBytes
			meta.SharedWithPrev = ct.SharedWithPrev
		}
	}
	return meta
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps the xtq error taxonomy onto HTTP statuses. Unknown
// errors are 500s; the typed kinds keep query authors (4xx) apart from
// operational failures (5xx).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	kind := "internal"
	var xe *xtq.Error
	if errors.As(err, &xe) {
		kind = xe.Kind.String()
		switch xe.Kind {
		case xtq.KindParse:
			status = http.StatusBadRequest
		case xtq.KindCompile:
			status = http.StatusUnprocessableEntity
		case xtq.KindNotFound:
			status = http.StatusNotFound
		case xtq.KindConflict:
			status = http.StatusConflict
		case xtq.KindEval:
			if errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
		case xtq.KindIO:
			// Oversized ingests surface as IO errors wrapping the
			// http.MaxBytesError the limited reader produced.
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				status = http.StatusRequestEntityTooLarge
			}
		}
	}
	writeJSON(w, status, map[string]string{"error": err.Error(), "kind": kind})
}

// readBody returns the request body as a string, bounded by maxBody.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) (string, error) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return "", &xtq.Error{Kind: xtq.KindIO, Err: err}
		}
		return "", &xtq.Error{Kind: xtq.KindIO, Msg: "xtqd: reading request body", Err: err}
	}
	return string(b), nil
}

// trackingWriter records whether any byte reached the underlying
// writer, so streaming handlers know if an error can still become a
// proper HTTP status or only a truncated body.
type trackingWriter struct {
	w     io.Writer
	wrote bool
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		t.wrote = true
	}
	return t.w.Write(p)
}

// answerWriter sets X-Xtq-Answer-Source (walk, record or replay, from
// the request's trace; see Prepared.EvalTo) before the first byte of a
// transform answer goes out, while headers can still change.
type answerWriter struct {
	w    io.Writer
	h    http.Header
	tr   *obs.Trace
	done bool
}

func (a *answerWriter) Write(p []byte) (int, error) {
	a.source()
	return a.w.Write(p)
}

func (a *answerWriter) source() {
	if a.done || a.tr == nil {
		return
	}
	a.done = true
	if s := a.tr.Answer(); s != "" {
		a.h.Set("X-Xtq-Answer-Source", s)
	}
}

func versionHeaders(w http.ResponseWriter, snap *xtq.Snapshot) {
	v := strconv.FormatUint(snap.Version(), 10)
	w.Header().Set("ETag", `"`+v+`"`)
	w.Header().Set("X-Xtq-Version", v)
}

// baseVersion extracts the optimistic-concurrency base from If-Match
// (ETag syntax: a quoted version) or X-Xtq-Base-Version. Zero means
// unconditional — including `If-Match: *`, RFC 9110's "any current
// representation", whose existence check the store performs anyway.
func baseVersion(r *http.Request) (uint64, error) {
	raw := r.Header.Get("X-Xtq-Base-Version")
	if im := strings.TrimSpace(r.Header.Get("If-Match")); im != "" {
		if im == "*" {
			return 0, nil
		}
		raw = strings.Trim(im, `"`)
	}
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || v == 0 {
		return 0, &xtq.Error{Kind: xtq.KindParse, Msg: fmt.Sprintf("xtqd: bad base version %q", raw)}
	}
	return v, nil
}

// redirecting reports (and performs) the follower write redirect: an
// unpromoted follower rejects every mutation with a 307 pointing at the
// same path on the primary, so a client that retries verbatim lands on
// the node that can commit.
func (s *server) redirecting(w http.ResponseWriter, r *http.Request) bool {
	if s.fol == nil || !s.st.ReadOnly() {
		return false
	}
	http.Redirect(w, r, s.fol.Primary()+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}

// minVersion parses the X-Xtq-Min-Version read-your-writes header;
// 0 means unconditional.
func minVersion(r *http.Request) (uint64, error) {
	raw := strings.TrimSpace(r.Header.Get("X-Xtq-Min-Version"))
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || v == 0 {
		return 0, &xtq.Error{Kind: xtq.KindParse, Msg: fmt.Sprintf("xtqd: bad X-Xtq-Min-Version %q", raw)}
	}
	return v, nil
}

// awaitMinVersion enforces read-your-writes on follower reads: a client
// that just committed version N on the primary reads back through this
// follower with X-Xtq-Min-Version: N, and the handler either waits
// (bounded by -catchup-wait) until replication reaches N or redirects
// the read to the primary (302 — the client retries there, where the
// version already exists). It reports whether the caller may proceed;
// on false the response has been written. On a primary or promoted
// node the local head is authoritative and the header is a no-op.
func (s *server) awaitMinVersion(w http.ResponseWriter, r *http.Request, name string) bool {
	v, err := minVersion(r)
	if err != nil {
		writeError(w, err)
		return false
	}
	if v == 0 || s.fol == nil || !s.st.ReadOnly() {
		return true
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.catchup)
	defer cancel()
	err = s.fol.WaitMinVersion(ctx, name, v)
	if err == nil {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		http.Redirect(w, r, s.fol.Primary()+r.URL.RequestURI(), http.StatusFound)
		return false
	}
	writeError(w, err) // sticky replication failure: typed Corrupt
	return false
}

// handlePromote makes a follower writable (failover). Idempotent; the
// response reports the final replication stats.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.fol.Promote()
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "replication": s.fol.Stats()})
}

// handleHealth reports role-aware node status: the primary's WAL tail
// (segment, offset, records appended), a follower's replay position and
// lag in bytes and versions, and plain document counts everywhere —
// what the cluster smoke test and an operator's first curl both read.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"ok":   true,
		"docs": s.st.Len(),
		// Observability vitals: process uptime, the metrics registry's
		// snapshot version (bumps whenever a new series appears), and the
		// slow-query count so "is it slow?" is one curl away.
		"uptime_seconds":  int64(obs.Default.Uptime().Seconds()),
		"metrics_version": obs.Default.Version(),
		"slow_queries":    mSlowQueries.Value(),
	}
	switch {
	case s.fol != nil:
		out["role"] = "follower"
		if s.fol.Stats().Promoted {
			out["role"] = "primary" // promoted: serving writes now
			out["promoted_from"] = s.fol.Primary()
		}
		out["primary"] = s.fol.Primary()
		stats := s.fol.Stats()
		out["replication"] = stats
		out["ok"] = stats.Err == ""
	default:
		out["role"] = "primary"
		if seg, off, recs, ok := s.st.WalTail(); ok {
			out["wal"] = map[string]any{"segment": seg, "offset": off, "records": recs}
		} else {
			out["durable"] = false
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	names := s.st.Names()
	docs := make([]docMeta, 0, len(names))
	for _, name := range names {
		if snap, err := s.st.Snapshot(name); err == nil {
			docs = append(docs, docMeta{Name: name, Version: snap.Version(), Nodes: snap.NumNodes()})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"docs": docs})
}

func (s *server) handlePutDoc(w http.ResponseWriter, r *http.Request) {
	if s.redirecting(w, r) {
		return
	}
	ctx, cancel := s.ctx(r)
	defer cancel()
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	snap, com, err := s.st.Put(ctx, name, xtq.FromReader(body))
	if err != nil {
		writeError(w, err)
		return
	}
	// The store's put path has no request context below the facade, so
	// the handler seeds the trace's commit section itself.
	if tr := obs.TraceFrom(ctx); tr != nil && tr.Commit() == nil {
		tr.SetCommit(&obs.CommitTrace{
			Kind: "put", Version: com.Version,
			CopiedNodes: com.CopiedNodes, CopiedBytes: com.CopiedBytes,
		})
	}
	versionHeaders(w, snap)
	status := http.StatusCreated
	if com.Version > 1 {
		status = http.StatusOK
	}
	writeJSON(w, status, commitJSON(ctx, name, snap, com))
}

// handleGetDoc serves the current snapshot, or — with ?version=N — a
// time-travel read: recent versions come from the in-memory history
// ring, older ones (on a WAL-backed server) are reconstructed by
// replaying the logged update queries from the last checkpoint.
func (s *server) handleGetDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.awaitMinVersion(w, r, name) {
		return
	}
	var (
		snap *xtq.Snapshot
		err  error
	)
	if v := r.URL.Query().Get("version"); v != "" {
		version, perr := strconv.ParseUint(v, 10, 64)
		if perr != nil || version == 0 {
			writeError(w, &xtq.Error{Kind: xtq.KindParse, Msg: fmt.Sprintf("xtqd: bad version %q", v)})
			return
		}
		ctx, cancel := s.ctx(r)
		defer cancel()
		snap, err = s.st.SnapshotAt(ctx, name, version)
	} else {
		snap, err = s.st.Snapshot(name)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	versionHeaders(w, snap)
	// If-None-Match: a cache revalidation against the served version.
	if inm := strings.TrimSpace(r.Header.Get("If-None-Match")); inm != "" {
		if strings.Trim(inm, `"`) == strconv.FormatUint(snap.Version(), 10) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("Content-Type", "application/xml")
	snap.WriteXML(w)
}

// historyMeta is the JSON shape of GET /docs/{name}/history.
type historyMeta struct {
	Name    string            `json:"name"`
	Current uint64            `json:"current"`
	Floor   uint64            `json:"floor"`
	Entries []historyEntryOut `json:"entries"`
}

type historyEntryOut struct {
	Version  uint64 `json:"version"`
	Nodes    int    `json:"nodes"`
	Deleted  bool   `json:"deleted,omitempty"`
	Resident bool   `json:"resident"`
}

// handleHistory lists the versions GET ?version=N can serve: the
// memory-resident entries (newest first) and the floor, the oldest
// version reconstructable from the log.
func (s *server) handleHistory(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entries, floor, err := s.st.History(name)
	if err != nil {
		writeError(w, err)
		return
	}
	out := historyMeta{Name: name, Floor: floor, Entries: make([]historyEntryOut, 0, len(entries))}
	if len(entries) > 0 {
		out.Current = entries[0].Version
	}
	for _, e := range entries {
		out.Entries = append(out.Entries, historyEntryOut{
			Version: e.Version, Nodes: e.Nodes, Deleted: e.Deleted, Resident: e.Resident,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	if s.redirecting(w, r) {
		return
	}
	ok, err := s.st.Remove(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		writeError(w, &xtq.Error{Kind: xtq.KindNotFound, Msg: "xtqd: no document " + strconv.Quote(r.PathValue("name"))})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleQuery evaluates a transform query read from the body against
// the current snapshot of the document, written by the topdown walk as
// it decides it (Prepared.EvalTo) without building the result, or
// replayed from the answer the walk recorded over the same version on
// an earlier request; X-Xtq-Answer-Source says which (walk, record or
// replay). See writeStreamed for what a failure leaves. ?method=
// overrides the engine's in-memory method for this one evaluation, on
// the node's one engine (so a forced method shares its compiled-query
// cache), and builds the result tree, as ?explain=1 does; ?stream=1
// uses the two-pass SAX evaluator instead, emitting output as it goes;
// neither records nor replays an answer. Note that over an
// in-memory snapshot the streaming evaluator's two input passes each
// read a serialization of the tree (Snapshot.Open): the chain's image
// without a copy once tree-path queries have built it, a fresh buffer
// before that. Its O(depth) guarantee is about evaluation state, not
// about the already-resident document.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.ctx(r)
	defer cancel()
	explain := explainRequested(r)
	if explain {
		if r.URL.Query().Get("stream") == "1" {
			// Streaming never materializes the result, so there is no
			// point in the stream an explain body could replace.
			writeError(w, &xtq.Error{Kind: xtq.KindParse,
				Msg: "xtqd: explain=1 cannot be combined with stream=1"})
			return
		}
		if obs.TraceFrom(ctx) == nil {
			ctx = obs.WithTrace(ctx, obs.NewTrace())
		}
	}
	src, err := s.readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	if strings.TrimSpace(src) == "" {
		writeError(w, &xtq.Error{Kind: xtq.KindParse, Msg: "xtqd: empty query body"})
		return
	}
	if !s.awaitMinVersion(w, r, r.PathValue("name")) {
		return
	}
	snap, err := s.st.Snapshot(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	var method xtq.Method
	if m := r.URL.Query().Get("method"); m != "" {
		if r.URL.Query().Get("stream") == "1" {
			// stream=1 always evaluates with twoPassSAX; silently
			// ignoring an explicit in-memory method would hand the
			// client a different evaluator than it asked to verify.
			writeError(w, &xtq.Error{Kind: xtq.KindParse,
				Msg: "xtqd: method= cannot be combined with stream=1 (streaming always uses the twoPassSAX evaluator)"})
			return
		}
		method, err = xtq.ParseMethod(m)
		if err != nil {
			// The unknown-method error is KindEval (it normally means a
			// misconfigured engine); here it is a client-supplied query
			// parameter, so surface it as a 400, not a 500.
			msg := err.Error()
			var ie *xtq.Error
			if errors.As(err, &ie) && ie.Msg != "" {
				msg = ie.Msg
			}
			writeError(w, &xtq.Error{Kind: xtq.KindParse, Msg: msg, Err: err})
			return
		}
	}
	p, err := s.st.Engine().PrepareContext(ctx, src)
	if err != nil {
		writeError(w, err)
		return
	}

	if r.URL.Query().Get("stream") == "1" {
		writeStreamed(w, snap, func(w io.Writer) error {
			_, err := p.EvalStream(ctx, snap, xtq.ToWriter(w))
			return err
		})
		return
	}
	if method == "" && !explain {
		// EvalTo reads the snapshot's chain before it walks (see
		// tree.Index.Read), so the read that builds the image already
		// copies from it and prunes with its label masks.
		writeStreamed(w, snap, func(out io.Writer) error {
			aw := &answerWriter{w: out, h: w.Header(), tr: obs.TraceFrom(ctx)}
			if err := p.EvalTo(ctx, snap, aw); err != nil {
				return err
			}
			aw.source() // an empty answer writes no byte
			return nil
		})
		return
	}

	// ?method= and ?explain=1 build the result tree.
	var res *xtq.Node
	if method == "" {
		res, err = p.Eval(ctx, snap)
	} else {
		res, err = p.EvalWith(ctx, snap, method)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if explain {
		out := explainFrom(obs.TraceFrom(ctx))
		out.Doc = r.PathValue("name")
		out.Version = snap.Version()
		out.ResultNodes = res.Size()
		versionHeaders(w, snap)
		writeJSON(w, http.StatusOK, out)
		return
	}
	snap.Index().Read(tree.NeedImage) // a forced method reads the chain too
	writeResult(w, snap, res)
}

// writeStreamed answers with the XML that write produces, stamped with
// the snapshot version it reads. write's output is buffered, so a failure
// before the first buffer reaches the client (a bad evaluation, the
// timeout expiring early) still answers its typed status and JSON error.
// A failure after that cannot change the status any more: the handler
// aborts (http.ErrAbortHandler), so the body ends without its
// terminating chunk and the client sees a truncated response, never a
// complete-looking one.
func writeStreamed(w http.ResponseWriter, snap *xtq.Snapshot, write func(io.Writer) error) {
	versionHeaders(w, snap)
	w.Header().Set("Content-Type", "application/xml")
	tw := &trackingWriter{w: w}
	if err := write(tw); err != nil {
		if tw.wrote {
			panic(http.ErrAbortHandler)
		}
		w.Header().Del("ETag")
		w.Header().Del("X-Xtq-Version")
		writeError(w, err)
	}
}

// writeResult serializes a result tree to the response, stamping the
// snapshot version it was computed over. A failed write (the client went
// away) stops the walk at once; it can only leave a truncated body (the
// status already went out with the first flush), so it is not separately
// reported.
func writeResult(w http.ResponseWriter, snap *xtq.Snapshot, res *xtq.Node) {
	versionHeaders(w, snap)
	w.Header().Set("Content-Type", "application/xml")
	sw := sax.NewWriter(w)
	if err := sax.Emit(res, sw); err != nil {
		return
	}
	sw.Flush()
}

// handleUpdate commits the update query in the body. If-Match: "v"
// (or X-Xtq-Base-Version: v) makes the commit conditional — 409 when
// the base version was superseded.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.redirecting(w, r) {
		return
	}
	ctx, cancel := s.ctx(r)
	defer cancel()
	src, err := s.readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	if strings.TrimSpace(src) == "" {
		writeError(w, &xtq.Error{Kind: xtq.KindParse, Msg: "xtqd: empty update body"})
		return
	}
	base, err := baseVersion(r)
	if err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")
	var (
		snap *xtq.Snapshot
		com  xtq.Commit
	)
	if base != 0 {
		snap, com, err = s.st.ApplyAt(ctx, name, src, base)
	} else {
		snap, com, err = s.st.Apply(ctx, name, src)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	versionHeaders(w, snap)
	if tr := obs.TraceFrom(ctx); tr != nil && explainRequested(r) {
		// ?explain=1 on a write swaps the bare commit body for the full
		// trace rendering: method (auto resolved to topdown), plan
		// section and commit cost side by side.
		out := explainFrom(tr)
		out.Doc = name
		out.Version = snap.Version()
		writeJSON(w, http.StatusOK, out)
		return
	}
	writeJSON(w, http.StatusOK, commitJSON(ctx, name, snap, com))
}

// handleDocView serves a registered view stack over the current
// snapshot: the maintained materialization by default (served from the
// incremental-view cache when current — X-Xtq-View-Source says which
// path ran, ?stats=1 adds the full per-layer maintenance statistics as
// the X-Xtq-View-Stats JSON header), or — with ?q= — answering a user
// query composed with the stack in a single pass (no layer
// materialized).
func (s *server) handleDocView(w http.ResponseWriter, r *http.Request) {
	if !s.awaitMinVersion(w, r, r.PathValue("name")) {
		return
	}
	ctx, cancel := s.ctx(r)
	defer cancel()
	explain := explainRequested(r)
	if explain && obs.TraceFrom(ctx) == nil {
		ctx = obs.WithTrace(ctx, obs.NewTrace())
	}
	snap, err := s.st.Snapshot(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}

	var (
		res *xtq.Node
		// composedVisited carries the single-pass composition's own node
		// count into the explain body (its evaluator predates the trace's
		// visit counters).
		composedVisited int
	)
	q := r.URL.Query().Get("q")
	if q != "" {
		v, err := s.st.LookupView(r.PathValue("view"))
		if err != nil {
			writeError(w, err)
			return
		}
		pv, err := v.Prepare(q)
		if err != nil {
			writeError(w, err)
			return
		}
		// A composed query reads the chain without copying its bytes:
		// its second read builds the chain's label masks, which prune
		// the walk, and no image. Noted before the walk, so that read
		// already gains.
		snap.Index().Read(tree.NeedMasks)
		out, stats, err := pv.Eval(ctx, snap)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("X-Xtq-Nodes-Visited", strconv.Itoa(stats.NodesVisited))
		if tr := obs.TraceFrom(ctx); tr != nil && tr.Method() == "" {
			tr.SetMethod("composed")
		}
		composedVisited = stats.NodesVisited
		res = out
	} else {
		out, stats, err := s.st.ViewAt(ctx, snap, r.PathValue("view"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("X-Xtq-View-Source", stats.Source)
		if r.URL.Query().Get("stats") == "1" {
			// The header serializes the trace's view section (the ivm
			// layer fills it; ViewTrace's JSON shape matches the historical
			// ivm.Stats marshaling), falling back to the returned stats for
			// requests outside a traced context.
			var payload any = stats
			if tr := obs.TraceFrom(ctx); tr != nil && tr.View() != nil {
				payload = tr.View()
			}
			if b, err := json.Marshal(payload); err == nil {
				w.Header().Set("X-Xtq-View-Stats", string(b))
			}
		}
		res = out
	}
	if explain {
		out := explainFrom(obs.TraceFrom(ctx))
		out.Doc = r.PathValue("name")
		out.Version = snap.Version()
		out.ResultNodes = res.Size()
		if out.NodesVisited == 0 {
			out.NodesVisited = composedVisited
		}
		versionHeaders(w, snap)
		writeJSON(w, http.StatusOK, out)
		return
	}
	if q == "" {
		// A maintained view shares its base's untouched subtrees, so it
		// reads the base chain like a query; a small ?q= result does
		// not, and earns the chain only the label masks beside the image
		// (noted above).
		snap.Index().Read(tree.NeedImage)
	}
	writeResult(w, snap, res)
}

// viewMeta is the JSON shape of one registered view.
type viewMeta struct {
	Name   string `json:"name"`
	Layers int    `json:"layers"`
}

func (s *server) handleListViews(w http.ResponseWriter, r *http.Request) {
	names := s.st.ViewNames()
	views := make([]viewMeta, 0, len(names))
	for _, name := range names {
		if v, err := s.st.LookupView(name); err == nil {
			views = append(views, viewMeta{Name: name, Layers: v.Layers()})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"views": views})
}

// handlePutView registers a view stack: the body is a JSON array of
// transform query strings, innermost layer first.
func (s *server) handlePutView(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	var stack []string
	if err := json.Unmarshal([]byte(body), &stack); err != nil {
		writeError(w, &xtq.Error{Kind: xtq.KindParse, Msg: "xtqd: view body must be a JSON array of transform queries: " + err.Error()})
		return
	}
	v, err := s.st.RegisterView(r.PathValue("view"), stack...)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, viewMeta{Name: r.PathValue("view"), Layers: v.Layers()})
}

func (s *server) handleDeleteView(w http.ResponseWriter, r *http.Request) {
	if !s.st.RemoveView(r.PathValue("view")) {
		writeError(w, &xtq.Error{Kind: xtq.KindNotFound, Msg: "xtqd: no view " + strconv.Quote(r.PathValue("view"))})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
