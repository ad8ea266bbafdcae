package main

import (
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xtq"
	"xtq/internal/obs"
)

// Serving-layer instruments: every route registered through
// (*server).handle (and the router's proxy wrapper) reports request
// count by route and status class, latency by route, and the in-flight
// gauge. Routes are labeled with their literal mux pattern — a closed,
// low-cardinality set fixed at registration time.
var (
	mHTTPRequests = obs.Default.CounterVec("xtqd_http_requests_total",
		"HTTP requests served, by route pattern and status code.", "route", "code")
	mHTTPSeconds = obs.Default.HistogramVec("xtqd_http_request_seconds",
		"HTTP request latency by route pattern.", "route")
	mHTTPInFlight = obs.Default.Gauge("xtqd_http_in_flight",
		"HTTP requests currently being served.")
	mSlowQueries = obs.Default.Counter("xtqd_slow_queries_total",
		"Requests on evaluating routes that exceeded -slow-query-ms.")
	// mDerivedBytes is read from the node's store at scrape time
	// (xtq.Store.DerivedBytes).
	mDerivedBytes = obs.Default.GaugeVec("xtq_chain_derived_bytes",
		"Bytes of derived state (chain images, label masks, recorded transform answers) held by the chains of the stored documents and maintained views, by kind.", "kind")
)

// statusWriter captures the response status for the request metrics
// while passing flushes through, so SSE streams behind the middleware
// still emit event-by-event.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// slowEligible reports whether a route evaluates queries — the routes
// the slow-query log watches. Long-poll and streaming routes (/watch,
// /wal) are intentionally long-lived and never count as slow.
func slowEligible(pattern string) bool {
	return strings.Contains(pattern, "/query") ||
		strings.Contains(pattern, "/update") ||
		strings.Contains(pattern, "/views/")
}

// instrument wraps h with the request metrics and a fresh per-request
// trace: the one obs.Trace the layers below fill in and the explain
// body, stats header and slow-query line all read back out.
func instrument(pattern string, slow time.Duration, h http.Handler) http.Handler {
	hist := mHTTPSeconds.With(pattern)
	logSlow := slow > 0 && slowEligible(pattern)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace()
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w}
		mHTTPInFlight.Inc()
		start := time.Now()
		// Deferred, so a handler that aborts a response it has begun
		// (panic(http.ErrAbortHandler), see writeStreamed) is counted.
		defer func() {
			d := time.Since(start)
			mHTTPInFlight.Dec()
			code := sw.status
			if code == 0 {
				code = http.StatusOK
			}
			mHTTPRequests.With(pattern, strconv.Itoa(code)).Inc()
			hist.Observe(d)
			if logSlow && d >= slow {
				mSlowQueries.Inc()
				logSlowQuery(pattern, r, tr, code, d)
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// slowQueryLine is the structured (JSON) payload of one slow-query log
// line: where the time went, from the request's trace.
type slowQueryLine struct {
	Route        string           `json:"route"`
	Path         string           `json:"path"`
	Status       int              `json:"status"`
	WallMS       float64          `json:"wall_ms"`
	Method       string           `json:"method,omitempty"`
	Answer       string           `json:"answer,omitempty"`
	CacheHit     *bool            `json:"query_cache_hit,omitempty"`
	CompileMS    float64          `json:"compile_ms,omitempty"`
	EvalMS       float64          `json:"eval_ms,omitempty"`
	DocNodes     int              `json:"doc_nodes,omitempty"`
	NodesVisited int              `json:"nodes_visited,omitempty"`
	Plan         *obs.PlanTrace   `json:"plan,omitempty"`
	View         *obs.ViewTrace   `json:"view,omitempty"`
	Commit       *obs.CommitTrace `json:"commit,omitempty"`
}

func logSlowQuery(pattern string, r *http.Request, tr *obs.Trace, status int, d time.Duration) {
	line := slowQueryLine{
		Route:        pattern,
		Path:         r.URL.Path,
		Status:       status,
		WallMS:       ms(d),
		Method:       tr.Method(),
		Answer:       tr.Answer(),
		CompileMS:    ms(tr.Compile()),
		EvalMS:       ms(tr.Eval()),
		DocNodes:     tr.DocNodes(),
		NodesVisited: tr.NodesVisited(),
		Plan:         tr.Plan(),
		View:         tr.View(),
		Commit:       tr.Commit(),
	}
	if hit, known := tr.CacheHit(); known {
		line.CacheHit = &hit
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	log.Printf("xtqd: slow-query %s", b)
}

func ms(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// serveMetrics returns the GET /metrics handler: the process registry
// in Prometheus text exposition, every sample stamped with the node's
// role, after reading what st (nil on a router) holds. role is a func
// because a follower's role flips to primary on promotion.
func serveMetrics(role func() string, st *xtq.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if st != nil {
			for kind, n := range st.DerivedBytes() {
				mDerivedBytes.With(kind).Set(n)
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WriteTo(w, obs.Label{Name: "role", Value: role()})
	}
}

// explainMeta is the JSON body of an ?explain=1 evaluation: the
// request's completed trace, rendered. Durations are integral
// nanoseconds so the numbers divide exactly.
type explainMeta struct {
	Doc     string `json:"doc"`
	Version uint64 `json:"version"`
	// Method is the evaluation method that actually ran, after any
	// ?method= override ("composed" for single-pass view composition).
	Method string `json:"method,omitempty"`
	// QueryCacheHit is the compiled-query cache outcome of this
	// request's Prepare; absent when no engine prepare ran.
	QueryCacheHit *bool `json:"query_cache_hit,omitempty"`
	CompileNS     int64 `json:"compile_ns"`
	EvalNS        int64 `json:"eval_ns"`
	// WallNS is the full wall time from request arrival to the moment
	// the explain body was rendered.
	WallNS       int64 `json:"wall_ns"`
	DocNodes     int   `json:"doc_nodes,omitempty"`
	NodesVisited int   `json:"nodes_visited"`
	ResultNodes  int   `json:"result_nodes,omitempty"`
	// Plan is the planner section when method=auto decided the method:
	// the method it resolved to and the rule's name. A forced ?method=
	// has none.
	Plan *obs.PlanTrace `json:"plan,omitempty"`
	// View is the materialized-view section when the request read one.
	View *obs.ViewTrace `json:"view,omitempty"`
	// Commit is the write-cost section when the request committed.
	Commit *obs.CommitTrace `json:"commit,omitempty"`
}

// explainFrom renders a completed trace. Callers fill Doc, Version and
// ResultNodes from the snapshot and result at hand.
func explainFrom(tr *obs.Trace) explainMeta {
	out := explainMeta{
		Method:       tr.Method(),
		CompileNS:    tr.Compile().Nanoseconds(),
		EvalNS:       tr.Eval().Nanoseconds(),
		WallNS:       tr.Elapsed().Nanoseconds(),
		DocNodes:     tr.DocNodes(),
		NodesVisited: tr.NodesVisited(),
		Plan:         tr.Plan(),
		View:         tr.View(),
		Commit:       tr.Commit(),
	}
	if hit, known := tr.CacheHit(); known {
		out.QueryCacheHit = &hit
	}
	return out
}

// explainRequested reports the ?explain=1 switch.
func explainRequested(r *http.Request) bool {
	return r.URL.Query().Get("explain") == "1"
}
