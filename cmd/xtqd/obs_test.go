package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"xtq"
	"xtq/internal/obs"
	"xtq/internal/obs/obstest"
)

const testQuery = `transform copy $a := doc("d") modify do delete $a//price return $a`

// TestExplainReportsMethod round-trips ?explain=1 and checks the trace
// reports the evaluation method that actually ran — the engine default,
// and each ?method= override.
func TestExplainReportsMethod(t *testing.T) {
	ts := newTestServer(t)
	if code, _, body := do(t, "PUT", ts.URL+"/docs/d", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("put: %d %s", code, body)
	}

	for _, method := range []string{"", "naive", "twopass", "copyupdate"} {
		url := ts.URL + "/docs/d/query?explain=1"
		want := "topdown"
		if method != "" {
			url += "&method=" + method
			want = method
		}
		code, _, body := do(t, "POST", url, testQuery, nil)
		if code != http.StatusOK {
			t.Fatalf("explain (%q): %d %s", method, code, body)
		}
		var out struct {
			Doc          string `json:"doc"`
			Version      uint64 `json:"version"`
			Method       string `json:"method"`
			CacheHit     *bool  `json:"query_cache_hit"`
			EvalNS       int64  `json:"eval_ns"`
			WallNS       int64  `json:"wall_ns"`
			NodesVisited int    `json:"nodes_visited"`
			ResultNodes  int    `json:"result_nodes"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("explain body %q: %v", body, err)
		}
		if out.Method != want {
			t.Errorf("method %q: explain method = %q, want %q", method, out.Method, want)
		}
		if out.Doc != "d" || out.Version != 1 {
			t.Errorf("explain doc/version = %q/%d, want d/1", out.Doc, out.Version)
		}
		if out.CacheHit == nil {
			t.Errorf("method %q: explain has no query_cache_hit", method)
		}
		if out.EvalNS <= 0 || out.WallNS <= 0 {
			t.Errorf("method %q: non-positive timings: eval=%d wall=%d", method, out.EvalNS, out.WallNS)
		}
		if out.ResultNodes <= 0 {
			t.Errorf("method %q: result_nodes = %d", method, out.ResultNodes)
		}
	}

	// A repeat of the same query must report a compiled-query cache hit.
	code, _, body := do(t, "POST", ts.URL+"/docs/d/query?explain=1", testQuery, nil)
	if code != http.StatusOK {
		t.Fatalf("explain repeat: %d %s", code, body)
	}
	var out struct {
		CacheHit *bool `json:"query_cache_hit"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.CacheHit == nil || !*out.CacheHit {
		t.Errorf("repeated explain query_cache_hit = %v, want true", out.CacheHit)
	}
}

// metricSample reads one sample line of /metrics (series is the name
// with its rendered label set); an absent series reads 0.
func metricSample(t *testing.T, base, series string) float64 {
	t.Helper()
	code, _, body := do(t, "GET", base+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	return 0
}

// TestForcedMethodSharesQueryCache pins ?method= as an argument of one
// evaluation on the node's one engine: after one default query, every
// forced method answers the same bytes, and its prepare is a hit in the
// compiled-query cache the default query filled — one hit, no miss.
func TestForcedMethodSharesQueryCache(t *testing.T) {
	ts := newAutoTestServer(t)
	if code, _, body := do(t, "PUT", ts.URL+"/docs/d", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("put: %d %s", code, body)
	}
	code, _, want := do(t, "POST", ts.URL+"/docs/d/query", testQuery, nil)
	if code != http.StatusOK {
		t.Fatalf("default query: %d %s", code, want)
	}
	const hits = `xtq_engine_cache_hits_total{cache="query",role="primary"}`
	const misses = `xtq_engine_cache_misses_total{cache="query",role="primary"}`
	for _, m := range []string{"naive", "twopass", "copyupdate", "topdown", "auto"} {
		h0, m0 := metricSample(t, ts.URL, hits), metricSample(t, ts.URL, misses)
		code, _, body := do(t, "POST", ts.URL+"/docs/d/query?method="+m, testQuery, nil)
		if code != http.StatusOK || body != want {
			t.Fatalf("method=%s: %d %q, want the default answer %q", m, code, body, want)
		}
		if h, mi := metricSample(t, ts.URL, hits)-h0, metricSample(t, ts.URL, misses)-m0; h != 1 || mi != 0 {
			t.Errorf("method=%s: query cache +%v hits +%v misses, want +1/+0", m, h, mi)
		}
	}
}

func TestExplainRejectsStreaming(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/d", testDoc, nil)
	code, _, body := do(t, "POST", ts.URL+"/docs/d/query?explain=1&stream=1", testQuery, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("explain+stream: %d %s, want 400", code, body)
	}
}

// TestExplainView checks the view-read explain carries the ivm layer's
// view section and the composed path reports its method.
func TestExplainView(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/d", testDoc, nil)
	stack, _ := json.Marshal([]string{testQuery})
	if code, _, body := do(t, "PUT", ts.URL+"/views/pub", string(stack), nil); code != http.StatusCreated {
		t.Fatalf("put view: %d %s", code, body)
	}

	code, _, body := do(t, "GET", ts.URL+"/docs/d/views/pub?explain=1", "", nil)
	if code != http.StatusOK {
		t.Fatalf("view explain: %d %s", code, body)
	}
	var out struct {
		View *obs.ViewTrace `json:"view"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("view explain body %q: %v", body, err)
	}
	if out.View == nil || out.View.View != "pub" || out.View.Doc != "d" {
		t.Fatalf("view explain has no view section: %s", body)
	}

	code, _, body = do(t, "GET", ts.URL+"/docs/d/views/pub?explain=1&q="+
		"for+$x+in+/db/part+return+%3Centry%3E%7B$x/pname%7D%3C/entry%3E", "", nil)
	if code != http.StatusOK {
		t.Fatalf("composed explain: %d %s", code, body)
	}
	var cout struct {
		Method       string `json:"method"`
		NodesVisited int    `json:"nodes_visited"`
	}
	if err := json.Unmarshal([]byte(body), &cout); err != nil {
		t.Fatal(err)
	}
	if cout.Method != "composed" {
		t.Errorf("composed explain method = %q, want composed", cout.Method)
	}
	if cout.NodesVisited <= 0 {
		t.Errorf("composed explain nodes_visited = %d", cout.NodesVisited)
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and lints the
// whole exposition: format, const role label, and the serving-layer
// series the middleware must have recorded.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/d", testDoc, nil)
	do(t, "POST", ts.URL+"/docs/d/query", testQuery, nil)

	code, hdr, body := do(t, "GET", ts.URL+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	types := obstest.Lint(t, body)
	for _, fam := range []string{
		"xtqd_http_requests_total", "xtqd_http_request_seconds",
		"xtqd_http_in_flight", "xtqd_slow_queries_total",
		"xtq_engine_eval_seconds", "xtq_store_commit_seconds",
		"xtq_chain_derived_builds_total", "xtq_chain_derived_bytes",
		"xtq_query_answers_total",
	} {
		if _, ok := types[fam]; !ok {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	if !strings.Contains(body, `role="primary"`) {
		t.Errorf("/metrics samples not labeled role=primary")
	}
	if !strings.Contains(body, `xtqd_http_requests_total{code="200",role="primary",route="POST /docs/{name}/query"}`) &&
		!strings.Contains(body, `xtqd_http_requests_total{route="POST /docs/{name}/query"`) {
		// Label order depends on the exposition's sorting; accept either,
		// but the query route must be present with a 200.
		if !strings.Contains(body, "POST /docs/{name}/query") {
			t.Errorf("query route missing from request metrics:\n%s", body)
		}
	}
}

// TestHealthzObservabilityFields checks the /healthz extensions.
func TestHealthzObservabilityFields(t *testing.T) {
	ts := newTestServer(t)
	code, _, body := do(t, "GET", ts.URL+"/healthz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"uptime_seconds", "metrics_version", "slow_queries"} {
		if _, ok := m[k]; !ok {
			t.Errorf("healthz missing %q: %s", k, body)
		}
	}
}

// TestSlowQueryLog drives a query through a server with a sub-zero
// threshold and checks the structured line lands in the log with the
// trace fields filled.
func TestSlowQueryLog(t *testing.T) {
	st := xtq.NewStore(nil)
	h := buildServer(st, nil, 5*time.Second, 1<<20, 0, 0, time.Nanosecond)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(io.Discard)

	before := obs.Default.Version() // not the slow counter; just ensure registry alive
	_ = before
	do(t, "PUT", ts.URL+"/docs/d", testDoc, nil)
	do(t, "POST", ts.URL+"/docs/d/query", testQuery, nil)

	out := buf.String()
	idx := strings.Index(out, "slow-query ")
	if idx < 0 {
		t.Fatalf("no slow-query line in log: %q", out)
	}
	line := out[idx+len("slow-query "):]
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	var rec struct {
		Route  string  `json:"route"`
		Status int     `json:"status"`
		WallMS float64 `json:"wall_ms"`
		Method string  `json:"method"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query line %q: %v", line, err)
	}
	if rec.Status != http.StatusOK || rec.WallMS <= 0 {
		t.Errorf("slow-query line = %+v", rec)
	}
	if !strings.Contains(rec.Route, "/query") && !strings.Contains(rec.Route, "/update") {
		t.Errorf("slow-query route = %q", rec.Route)
	}
}

// TestCommitJSONMatchesTrace checks the update response's commit JSON
// is served from the request trace (the store fills it) and stays
// consistent with the returned headers.
func TestCommitJSONMatchesTrace(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/d", testDoc, nil)
	code, hdr, body := do(t, "POST", ts.URL+"/docs/d/update", testQuery, nil)
	if code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	var m struct {
		Version     uint64 `json:"version"`
		CopiedNodes int    `json:"copied_nodes"`
	}
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Errorf("commit version = %d, want 2", m.Version)
	}
	if m.CopiedNodes <= 0 {
		t.Errorf("copied_nodes = %d, want > 0", m.CopiedNodes)
	}
	if hdr.Get("X-Xtq-Version") != "2" {
		t.Errorf("X-Xtq-Version = %q", hdr.Get("X-Xtq-Version"))
	}
}
