package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"xtq"
	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/tree"
	"xtq/internal/xmark"
)

const testDoc = `<db>` +
	`<part><pname>keyboard</pname><supplier><sname>HP</sname><price>15</price><country>US</country></supplier></part>` +
	`<part><pname>mouse</pname><supplier><sname>Dell</sname><price>9</price><country>A</country></supplier></part>` +
	`</db>`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	st := xtq.NewStore(nil)
	ts := httptest.NewServer(newServer(st, 5*time.Second, 1<<20))
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url string, body string, hdr map[string]string) (int, http.Header, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, string(b)
}

func jsonField(t *testing.T, body, field string) float64 {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	f, ok := m[field].(float64)
	if !ok {
		t.Fatalf("no numeric field %q in %s", field, body)
	}
	return f
}

func TestIngestQueryUpdateRoundTrip(t *testing.T) {
	ts := newTestServer(t)

	// Ingest.
	code, hdr, body := do(t, "PUT", ts.URL+"/docs/parts", testDoc, nil)
	if code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if v := jsonField(t, body, "version"); v != 1 {
		t.Fatalf("ingest version = %v", v)
	}
	if hdr.Get("ETag") != `"1"` {
		t.Fatalf("ingest ETag = %q", hdr.Get("ETag"))
	}

	// Fetch the document back.
	code, hdr, got := do(t, "GET", ts.URL+"/docs/parts", "", nil)
	if code != http.StatusOK || got != testDoc {
		t.Fatalf("get: %d %q", code, got)
	}
	if hdr.Get("X-Xtq-Version") != "1" {
		t.Fatalf("get version header = %q", hdr.Get("X-Xtq-Version"))
	}

	// Query: a side-effect-free read.
	q := `transform copy $a := doc("parts") modify do delete $a//price return $a`
	code, hdr, res := do(t, "POST", ts.URL+"/docs/parts/query", q, nil)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, res)
	}
	if strings.Contains(res, "<price>") || !strings.Contains(res, "<pname>keyboard</pname>") {
		t.Fatalf("query result wrong: %s", res)
	}
	if hdr.Get("X-Xtq-Version") != "1" {
		t.Fatal("query must report the snapshot version it ran over")
	}
	// The document itself is untouched.
	if _, _, cur := do(t, "GET", ts.URL+"/docs/parts", "", nil); !strings.Contains(cur, "<price>") {
		t.Fatal("query mutated the document")
	}

	// The same query via the streaming evaluator.
	code, _, sres := do(t, "POST", ts.URL+"/docs/parts/query?stream=1", q, nil)
	if code != http.StatusOK || sres != res {
		t.Fatalf("stream query diverges: %d %q vs %q", code, sres, res)
	}

	// And per-method overrides agree.
	for _, m := range xtq.MethodNames() {
		code, _, mres := do(t, "POST", ts.URL+"/docs/parts/query?method="+m, q, nil)
		if code != http.StatusOK || mres != res {
			t.Fatalf("method %s diverges: %d %q", m, code, mres)
		}
	}

	// Update: the write path. Version advances.
	code, hdr, ub := do(t, "POST", ts.URL+"/docs/parts/update", q, nil)
	if code != http.StatusOK {
		t.Fatalf("update: %d %s", code, ub)
	}
	if v := jsonField(t, ub, "version"); v != 2 {
		t.Fatalf("update version = %v", v)
	}
	if jsonField(t, ub, "copied_nodes") == 0 {
		t.Fatal("copy-on-write commit reported no copied nodes")
	}
	if jsonField(t, ub, "shared_with_prev") == 0 {
		t.Fatal("path-copy commit shared nothing with the previous version")
	}
	if hdr.Get("ETag") != `"2"` {
		t.Fatalf("update ETag = %q", hdr.Get("ETag"))
	}
	if _, _, cur := do(t, "GET", ts.URL+"/docs/parts", "", nil); strings.Contains(cur, "<price>") {
		t.Fatal("update did not commit")
	}

	// Listing.
	code, _, lb := do(t, "GET", ts.URL+"/docs", "", nil)
	if code != http.StatusOK || !strings.Contains(lb, `"parts"`) {
		t.Fatalf("list: %d %s", code, lb)
	}

	// Delete.
	if code, _, _ := do(t, "DELETE", ts.URL+"/docs/parts", "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code, _, _ := do(t, "GET", ts.URL+"/docs/parts", "", nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", code)
	}
}

func TestConditionalUpdateConflict(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/d", testDoc, nil)
	up := `transform copy $a := doc("d") modify do insert <audit/> into $a/db/part return $a`

	// If-Match at the current version commits.
	code, _, body := do(t, "POST", ts.URL+"/docs/d/update", up, map[string]string{"If-Match": `"1"`})
	if code != http.StatusOK || jsonField(t, body, "version") != 2 {
		t.Fatalf("conditional update: %d %s", code, body)
	}
	// A stale If-Match is a 409 with kind conflict, and does not commit.
	code, _, body = do(t, "POST", ts.URL+"/docs/d/update", up, map[string]string{"If-Match": `"1"`})
	if code != http.StatusConflict || !strings.Contains(body, `"conflict"`) {
		t.Fatalf("stale update: %d %s", code, body)
	}
	// X-Xtq-Base-Version works the same way.
	code, _, _ = do(t, "POST", ts.URL+"/docs/d/update", up, map[string]string{"X-Xtq-Base-Version": "2"})
	if code != http.StatusOK {
		t.Fatalf("header-based conditional update: %d", code)
	}
	// If-Match: * means "any current representation" (RFC 9110): the
	// update commits unconditionally as long as the document exists.
	code, _, body = do(t, "POST", ts.URL+"/docs/d/update", up, map[string]string{"If-Match": "*"})
	if code != http.StatusOK || jsonField(t, body, "version") != 4 {
		t.Fatalf("If-Match *: %d %s", code, body)
	}
	if code, _, _ := do(t, "POST", ts.URL+"/docs/none/update", up, map[string]string{"If-Match": "*"}); code != http.StatusNotFound {
		t.Fatalf("If-Match * on missing doc: %d", code)
	}
	if code, _, _ := do(t, "POST", ts.URL+"/docs/d/update", up, map[string]string{"If-Match": `"zap"`}); code != http.StatusBadRequest {
		t.Fatalf("garbage If-Match: %d", code)
	}
}

func TestViewEndpoints(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/parts", testDoc, nil)

	stack, err := json.Marshal([]string{
		`transform copy $a := doc("parts") modify do delete $a//price return $a`,
		`transform copy $a := doc("parts") modify do delete $a//country return $a`,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, _, body := do(t, "PUT", ts.URL+"/views/public", string(stack), nil)
	if code != http.StatusCreated || !strings.Contains(body, `"layers": 2`) {
		t.Fatalf("register view: %d %s", code, body)
	}

	// Materialized view over the current snapshot.
	code, hdr, got := do(t, "GET", ts.URL+"/docs/parts/views/public", "", nil)
	if code != http.StatusOK {
		t.Fatalf("view: %d %s", code, got)
	}
	if strings.Contains(got, "<price>") || strings.Contains(got, "<country>") {
		t.Fatalf("view leaked hidden elements: %s", got)
	}
	if hdr.Get("X-Xtq-Version") != "1" {
		t.Fatal("view must carry the snapshot version")
	}

	// Composed user query over the view (single pass, no layer
	// materialized — the handler reports nodes visited).
	code, hdr, got = do(t, "GET",
		ts.URL+"/docs/parts/views/public?q="+
			"for+$x+in+/db/part/supplier+return+%3Centry%3E%7B$x/sname%7D%3C/entry%3E", "", nil)
	if code != http.StatusOK || !strings.Contains(got, "<sname>HP</sname>") {
		t.Fatalf("composed view query: %d %s", code, got)
	}
	if hdr.Get("X-Xtq-Nodes-Visited") == "" {
		t.Fatal("composed query must report stats")
	}

	// The view tracks updates: delete a supplier, the view follows.
	do(t, "POST", ts.URL+"/docs/parts/update",
		`transform copy $a := doc("parts") modify do delete $a//supplier[sname = "HP"] return $a`, nil)
	_, hdr, got = do(t, "GET", ts.URL+"/docs/parts/views/public", "", nil)
	if strings.Contains(got, "HP") || hdr.Get("X-Xtq-Version") != "2" {
		t.Fatalf("view did not follow the update: v=%s %s", hdr.Get("X-Xtq-Version"), got)
	}

	code, _, body = do(t, "GET", ts.URL+"/views", "", nil)
	if code != http.StatusOK || !strings.Contains(body, `"public"`) {
		t.Fatalf("list views: %d %s", code, body)
	}
	if code, _, _ := do(t, "DELETE", ts.URL+"/views/public", "", nil); code != http.StatusNoContent {
		t.Fatalf("delete view: %d", code)
	}
	if code, _, _ := do(t, "GET", ts.URL+"/docs/parts/views/public", "", nil); code != http.StatusNotFound {
		t.Fatalf("view after delete: %d", code)
	}
}

func TestErrorStatuses(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/d", testDoc, nil)

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"missing doc query", "POST", "/docs/none/query", `transform copy $a := doc("d") modify do delete $a//x return $a`, 404},
		{"missing doc get", "GET", "/docs/none", "", 404},
		{"malformed query", "POST", "/docs/d/query", "not a query", 400},
		{"empty query", "POST", "/docs/d/query", "", 400},
		{"outside fragment", "POST", "/docs/d/query", `transform copy $a := doc("d") modify do delete $a/part/@id return $a`, 422},
		{"malformed update", "POST", "/docs/d/update", "nope", 400},
		{"malformed ingest", "PUT", "/docs/bad", "<db><open>", 400},
		{"bad view body", "PUT", "/views/v", "not json", 400},
		{"missing view", "GET", "/docs/d/views/none", "", 404},
		{"unknown method", "POST", "/docs/d/query?method=bogus", `transform copy $a := doc("d") modify do delete $a//x return $a`, 400},
		{"method combined with stream", "POST", "/docs/d/query?method=naive&stream=1", `transform copy $a := doc("d") modify do delete $a//x return $a`, 400},
	}
	for _, tc := range cases {
		code, _, body := do(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if code != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, code, tc.want, body)
		}
	}
}

// TestStreamErrorBeforeOutputReportsStatus pins that a streaming query
// failing before any byte is written returns a real error status, not
// 200 with an empty body: with a nanosecond request timeout the
// evaluation dies before the sink's first flush, so the handler can
// still report 504.
func TestStreamErrorBeforeOutputReportsStatus(t *testing.T) {
	st := xtq.NewStore(nil)
	ts := httptest.NewServer(newServer(st, time.Nanosecond, 1<<20))
	defer ts.Close()
	// Ingest through a store handle directly: the HTTP ingest would also
	// be killed by the nanosecond timeout.
	if _, _, err := st.Put(t.Context(), "d", xtq.FromString(testDoc)); err != nil {
		t.Fatal(err)
	}
	code, _, body := do(t, "POST", ts.URL+"/docs/d/query?stream=1",
		`transform copy $a := doc("d") modify do delete $a//price return $a`, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("stream under expired deadline: %d %q, want 504", code, body)
	}
	if !strings.Contains(body, `"kind"`) {
		t.Fatalf("no error body: %q", body)
	}
}

// TestQueryErrorBeforeOutputReportsStatus: the emit walk buffers its
// output, so a query whose context ends before its first byte answers
// the typed status and JSON error of the tree path, without the version
// headers of a result.
func TestQueryErrorBeforeOutputReportsStatus(t *testing.T) {
	st := xtq.NewStore(nil)
	ts := httptest.NewServer(newServer(st, time.Nanosecond, 1<<20))
	defer ts.Close()
	if _, _, err := st.Put(t.Context(), "d", xtq.FromString(testDoc)); err != nil {
		t.Fatal(err)
	}
	code, hdr, body := do(t, "POST", ts.URL+"/docs/d/query",
		`transform copy $a := doc("d") modify do delete $a//price return $a`, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("query under expired deadline: %d %q, want 504", code, body)
	}
	if kind := hdr.Get("Content-Type"); kind != "application/json" || !strings.Contains(body, `"kind": "eval"`) {
		t.Fatalf("error body %q (%s), want a JSON eval error", body, kind)
	}
	if hdr.Get("ETag") != "" || hdr.Get("X-Xtq-Version") != "" {
		t.Fatalf("an error carries result version headers: %v", hdr)
	}
}

// TestStreamedFailureAfterOutputTruncates: once bytes of a streamed
// answer have reached the client, a failure aborts the response, so the
// body ends without its terminating chunk and the client sees an error
// rather than a complete-looking 200. The aborted request is still
// counted by the instrumented middleware.
func TestStreamedFailureAfterOutputTruncates(t *testing.T) {
	st := xtq.NewStore(nil)
	snap, _, err := st.Put(t.Context(), "d", xtq.FromString(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	const route = "POST /test/abort"
	before := mHTTPRequests.With(route, "200").Value()
	h := instrument(route, 0, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeStreamed(w, snap, func(out io.Writer) error {
			io.WriteString(out, "<db><part>")
			w.(http.Flusher).Flush()
			return io.ErrClosedPipe
		})
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	res, err := http.Post(ts.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK || string(b) != "<db><part>" || err == nil {
		t.Fatalf("status %d, body %q, read error %v; want 200, the prefix and an error", res.StatusCode, b, err)
	}
	if got := mHTTPRequests.With(route, "200").Value(); got != before+1 {
		t.Fatalf("aborted request counted %d times", got-before)
	}
}

// TestStreamMatchesTreeWithImage: the second tree-path query of a
// document builds its image (the first walks), and from then on ?stream=1
// (whose two input passes read the snapshot through Snapshot.Open)
// answers U1-U10 under every update kind with the tree path's bytes. The
// stream path alone never builds an image.
func TestStreamMatchesTreeWithImage(t *testing.T) {
	st := xtq.NewStore(nil)
	ts := httptest.NewServer(newServer(st, 5*time.Second, 1<<20))
	defer ts.Close()
	doc, err := xmark.Generate(xmark.Config{Factor: 0.001, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d", "s"} {
		if _, _, err := st.Put(t.Context(), name, doc); err != nil {
			t.Fatal(err)
		}
	}
	image := func(name string) *tree.Image {
		snap, err := st.Snapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Index().LoadImage()
	}
	q := queries.TransformOp(1, core.Rename).String()
	for i := 0; i < 2; i++ {
		if code, _, body := do(t, "POST", ts.URL+"/docs/s/query?stream=1", q, nil); code != http.StatusOK || image("s") != nil {
			t.Fatalf("stream query %d: %d, image built: %v (%.80q)", i+1, code, image("s") != nil, body)
		}
	}
	for i, want := range []bool{false, true} {
		if code, _, _ := do(t, "POST", ts.URL+"/docs/d/query", q, nil); code != http.StatusOK || (image("d") != nil) != want {
			t.Fatalf("tree query %d: %d, image built: %v, want %v", i+1, code, image("d") != nil, want)
		}
	}
	for i := 1; i <= 10; i++ {
		for _, op := range []core.Op{core.Insert, core.Delete, core.Rename, core.Replace} {
			q := queries.TransformOp(i, op).String()
			code, _, body := do(t, "POST", ts.URL+"/docs/d/query", q, nil)
			scode, _, stream := do(t, "POST", ts.URL+"/docs/d/query?stream=1", q, nil)
			if code != http.StatusOK || scode != http.StatusOK {
				t.Fatalf("U%d %s: status tree %d stream %d", i, op, code, scode)
			}
			if stream != body {
				t.Fatalf("U%d %s: stream body (%d bytes) differs from the tree body (%d bytes)", i, op, len(stream), len(body))
			}
		}
	}
}

// TestQueryAnswerSource: three POSTs of one transform over a fresh
// document answer the same bytes, walked (noting the pair), recorded
// (the chain's second read, which builds its image) and replayed, as
// X-Xtq-Answer-Source and xtq_query_answers_total say; the recording is
// charged to xtq_query_answer_bytes. A commit gives a version that walks
// again. ?method= and ?stream=1 build or stream their answers and set no
// source.
func TestQueryAnswerSource(t *testing.T) {
	ts := newTestServer(t)
	doc, err := xmark.Generate(xmark.Config{Factor: 0.001, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, body := do(t, "PUT", ts.URL+"/docs/d", doc.String(), nil); code != http.StatusCreated {
		t.Fatalf("put: %d %s", code, body)
	}
	answers := func(source string) float64 {
		return metricSample(t, ts.URL, `xtq_query_answers_total{role="primary",source="`+source+`"}`)
	}
	q := queries.TransformOp(5, core.Rename).String()
	var first string
	for i, source := range []string{"walk", "record", "replay", "replay"} {
		before := answers(source)
		code, hdr, body := do(t, "POST", ts.URL+"/docs/d/query", q, nil)
		if code != http.StatusOK {
			t.Fatalf("query %d: %d %.80q", i+1, code, body)
		}
		if got := hdr.Get("X-Xtq-Answer-Source"); got != source {
			t.Fatalf("query %d: X-Xtq-Answer-Source %q, want %q", i+1, got, source)
		}
		if got := answers(source) - before; got != 1 {
			t.Fatalf("query %d: xtq_query_answers_total{source=%q} rose by %v", i+1, source, got)
		}
		if i == 0 {
			first = body
		} else if body != first {
			t.Fatalf("query %d differs from the first (%d vs %d bytes)", i+1, len(body), len(first))
		}
	}
	if b := metricSample(t, ts.URL, `xtq_query_answer_bytes{role="primary"}`); b <= 0 {
		t.Fatalf("xtq_query_answer_bytes = %v after a recording", b)
	}
	for _, path := range []string{"/docs/d/query?method=topdown", "/docs/d/query?stream=1"} {
		code, hdr, body := do(t, "POST", ts.URL+path, q, nil)
		if code != http.StatusOK || body != first {
			t.Fatalf("%s: %d, %d bytes, want the answer's %d", path, code, len(body), len(first))
		}
		if got := hdr.Get("X-Xtq-Answer-Source"); got != "" {
			t.Fatalf("%s: X-Xtq-Answer-Source %q", path, got)
		}
	}
	upd := `transform copy $a := doc("d") modify do delete $a/site/regions return $a`
	if code, _, body := do(t, "POST", ts.URL+"/docs/d/update", upd, nil); code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	code, hdr, body := do(t, "POST", ts.URL+"/docs/d/query", q, nil)
	if code != http.StatusOK || body == first || hdr.Get("X-Xtq-Answer-Source") != "walk" {
		t.Fatalf("query after a commit: %d, source %q, same bytes as before: %v", code, hdr.Get("X-Xtq-Answer-Source"), body == first)
	}
}

// TestMaintainedViewReadBuildsImage: a read of a maintained view is a
// read of its base chain. The first GET walks, the second builds the
// chain's image (one more xtq_store_image_builds_total) and the third
// builds nothing; all three answer the same bytes. Composed ?q= reads
// build no image, however often a document is read: the second builds
// the chain's label masks (one xtq_store_mask_builds_total), and no
// later one builds anything.
func TestMaintainedViewReadBuildsImage(t *testing.T) {
	ts := newTestServer(t)
	doc, err := xmark.Generate(xmark.Config{Factor: 0.001, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d", "e"} {
		if code, _, body := do(t, "PUT", ts.URL+"/docs/"+name, doc.String(), nil); code != http.StatusCreated {
			t.Fatalf("put %s: %d %s", name, code, body)
		}
	}
	stack, err := json.Marshal([]string{
		`transform copy $a := doc("d") modify do delete $a` + queries.U[5] + ` return $a`,
		`transform copy $a := doc("d") modify do rename $a` + queries.U[1] + ` as member return $a`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, body := do(t, "PUT", ts.URL+"/views/v", string(stack), nil); code != http.StatusCreated {
		t.Fatalf("register view: %d %s", code, body)
	}
	builds := func() float64 { return metricSample(t, ts.URL, `xtq_store_image_builds_total{role="primary"}`) }
	before := builds()
	var first string
	for i, want := range []float64{0, 1, 1} {
		code, _, body := do(t, "GET", ts.URL+"/docs/d/views/v", "", nil)
		if code != http.StatusOK || !strings.Contains(body, "<member ") {
			t.Fatalf("view read %d: %d %.80q", i+1, code, body)
		}
		if got := builds() - before; got != want {
			t.Fatalf("after view read %d: %v image builds, want %v", i+1, got, want)
		}
		if i == 0 {
			first = body
		} else if body != first {
			t.Fatalf("view read %d differs from the first (%d vs %d bytes)", i+1, len(body), len(first))
		}
	}
	q := url.QueryEscape(`for $x in /site/people/member[@id = "person0"] return $x`)
	masks := func() float64 { return metricSample(t, ts.URL, `xtq_store_mask_builds_total{role="primary"}`) }
	before, beforeMasks := builds(), masks()
	for i := 0; i < 20; i++ {
		if code, _, body := do(t, "GET", ts.URL+"/docs/e/views/v?q="+q, "", nil); code != http.StatusOK {
			t.Fatalf("composed read %d: %d %s", i+1, code, body)
		}
		want := 1.0
		if i == 0 {
			want = 0
		}
		if got := masks() - beforeMasks; got != want {
			t.Fatalf("after composed read %d: %v mask builds, want %v", i+1, got, want)
		}
	}
	if got := builds() - before; got != 0 {
		t.Fatalf("20 composed reads built %v images, want 0", got)
	}
}

// TestMaintainedViewBuildsItsOwnImage: the view's first read
// materializes it, stamped in place as a chain of its own; the third
// read (the second served from the cache entry) builds that chain's
// image — one xtq_ivm_image_builds_total — and no later read, before or
// after a delta-maintained commit, builds another.
func TestMaintainedViewBuildsItsOwnImage(t *testing.T) {
	ts := newTestServer(t)
	doc, err := xmark.Generate(xmark.Config{Factor: 0.001, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, body := do(t, "PUT", ts.URL+"/docs/d", doc.String(), nil); code != http.StatusCreated {
		t.Fatalf("put: %d %s", code, body)
	}
	stack, err := json.Marshal([]string{
		`transform copy $a := doc("d") modify do delete $a` + queries.U[5] + ` return $a`,
		`transform copy $a := doc("d") modify do rename $a` + queries.U[1] + ` as member return $a`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, body := do(t, "PUT", ts.URL+"/views/v", string(stack), nil); code != http.StatusCreated {
		t.Fatalf("register view: %d %s", code, body)
	}
	builds := func() float64 { return metricSample(t, ts.URL, `xtq_ivm_image_builds_total{role="primary"}`) }
	before := builds()
	var first string
	for i, want := range []float64{0, 0, 1, 1, 1} {
		code, hdr, body := do(t, "GET", ts.URL+"/docs/d/views/v", "", nil)
		if code != http.StatusOK || !strings.Contains(body, "<member ") {
			t.Fatalf("view read %d: %d %.80q", i+1, code, body)
		}
		wantSrc := "cache"
		if i == 0 {
			wantSrc = "recompute"
		}
		if src := hdr.Get("X-Xtq-View-Source"); src != wantSrc {
			t.Fatalf("view read %d: source %q, want %q", i+1, src, wantSrc)
		}
		if got := builds() - before; got != want {
			t.Fatalf("after view read %d: %v view image builds, want %v", i+1, got, want)
		}
		if i == 0 {
			first = body
		} else if body != first {
			t.Fatalf("view read %d differs from the first (%d vs %d bytes)", i+1, len(body), len(first))
		}
	}
	upd := `transform copy $a := doc("d") modify do insert <note/> into $a/site/people/person[@id = "person0"] return $a`
	if code, _, body := do(t, "POST", ts.URL+"/docs/d/update", upd, nil); code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	code, hdr, body := do(t, "GET", ts.URL+"/docs/d/views/v", "", nil)
	if src := hdr.Get("X-Xtq-View-Source"); code != http.StatusOK || (src != "cache" && src != "delta") {
		t.Fatalf("view read after a commit: %d, source %q", code, src)
	}
	if !strings.Contains(body, "<note/>") {
		t.Fatal("view read after the commit misses the inserted note")
	}
	if got := builds() - before; got != 1 {
		t.Fatalf("after the commit: %v view image builds, want 1", got)
	}
}

// TestConcurrentHTTP hammers the server with parallel readers and one
// writer — the serving-layer version of the store's isolation tests.
func TestConcurrentHTTP(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/docs/d", testDoc, nil)
	q := `transform copy $a := doc("d") modify do rename $a//supplier as vendor return $a`
	up := `transform copy $a := doc("d") modify do insert <audit/> into $a/db/part return $a`

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, body := do(t, "POST", ts.URL+"/docs/d/query", q, nil)
				if code != http.StatusOK {
					panic(fmt.Sprintf("reader: %d %s", code, body))
				}
			}
		}()
	}
	for i := 0; i < 15; i++ {
		code, _, body := do(t, "POST", ts.URL+"/docs/d/update", up, nil)
		if code != http.StatusOK {
			t.Errorf("writer: %d %s", code, body)
			break
		}
	}
	close(stop)
	wg.Wait()
	_, hdr, _ := do(t, "GET", ts.URL+"/docs/d", "", nil)
	if hdr.Get("X-Xtq-Version") != "16" {
		t.Fatalf("final version = %s, want 16", hdr.Get("X-Xtq-Version"))
	}
}

const updateQ = `transform copy $a := doc("parts") modify do delete $a//price return $a`

// TestTimeTravelEndpoints drives GET ?version=N and /history over a
// WAL-backed server: old versions stay readable after commits, the
// history listing names them, and unknown versions 404.
func TestTimeTravelEndpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := xtq.OpenStore(dir, nil, xtq.WithFsync(xtq.FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(newServer(st, 5*time.Second, 1<<20))
	t.Cleanup(ts.Close)

	if code, _, body := do(t, "PUT", ts.URL+"/docs/parts", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if code, _, body := do(t, "POST", ts.URL+"/docs/parts/update", updateQ, nil); code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}

	// Version 1 still has prices; version 2 does not; the bare GET serves 2.
	code, hdr, body := do(t, "GET", ts.URL+"/docs/parts?version=1", "", nil)
	if code != http.StatusOK || !strings.Contains(body, "<price>") {
		t.Fatalf("v1: %d %s", code, body)
	}
	if hdr.Get("X-Xtq-Version") != "1" {
		t.Fatalf("v1 header = %q", hdr.Get("X-Xtq-Version"))
	}
	if code, _, body := do(t, "GET", ts.URL+"/docs/parts?version=2", "", nil); code != http.StatusOK || strings.Contains(body, "<price>") {
		t.Fatalf("v2: %d %s", code, body)
	}
	if code, _, _ := do(t, "GET", ts.URL+"/docs/parts?version=9", "", nil); code != http.StatusNotFound {
		t.Fatalf("future version: %d", code)
	}
	if code, _, _ := do(t, "GET", ts.URL+"/docs/parts?version=bogus", "", nil); code != http.StatusBadRequest {
		t.Fatalf("bad version: %d", code)
	}

	code, _, body = do(t, "GET", ts.URL+"/docs/parts/history", "", nil)
	if code != http.StatusOK {
		t.Fatalf("history: %d %s", code, body)
	}
	var hist struct {
		Name    string `json:"name"`
		Current uint64 `json:"current"`
		Floor   uint64 `json:"floor"`
		Entries []struct {
			Version  uint64 `json:"version"`
			Resident bool   `json:"resident"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &hist); err != nil {
		t.Fatalf("history JSON: %v", err)
	}
	if hist.Current != 2 || hist.Floor != 1 || len(hist.Entries) != 2 || !hist.Entries[0].Resident {
		t.Fatalf("history = %+v", hist)
	}
	if code, _, _ := do(t, "GET", ts.URL+"/docs/none/history", "", nil); code != http.StatusNotFound {
		t.Fatalf("missing-doc history: %d", code)
	}
}

// TestDurableServerSurvivesRestart is the serving-layer durability
// round trip: ingest + update through one server instance, tear it down
// (as a crash would), reopen the same WAL dir, and the document — and
// its version — are still there, including time-travel reads.
func TestDurableServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := xtq.OpenStore(dir, nil, xtq.WithFsync(xtq.FsyncInterval))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(st, 5*time.Second, 1<<20))
	if code, _, body := do(t, "PUT", ts.URL+"/docs/parts", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if code, _, body := do(t, "POST", ts.URL+"/docs/parts/update", updateQ, nil); code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	_, _, before := do(t, "GET", ts.URL+"/docs/parts", "", nil)
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := xtq.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	ts2 := httptest.NewServer(newServer(st2, 5*time.Second, 1<<20))
	t.Cleanup(ts2.Close)

	code, hdr, after := do(t, "GET", ts2.URL+"/docs/parts", "", nil)
	if code != http.StatusOK || after != before {
		t.Fatalf("restart lost state: %d %q != %q", code, after, before)
	}
	if hdr.Get("X-Xtq-Version") != "2" {
		t.Fatalf("restart version = %q", hdr.Get("X-Xtq-Version"))
	}
	if code, _, body := do(t, "GET", ts2.URL+"/docs/parts?version=1", "", nil); code != http.StatusOK || !strings.Contains(body, "<price>") {
		t.Fatalf("time travel after restart: %d %s", code, body)
	}
	// And the chain keeps moving: a conditional update against v2 lands v3.
	if code, _, body := do(t, "POST", ts2.URL+"/docs/parts/update",
		`transform copy $a := doc("parts") modify do insert <audit/> into $a/db/part return $a`,
		map[string]string{"If-Match": `"2"`}); code != http.StatusOK {
		t.Fatalf("post-restart update: %d %s", code, body)
	} else if v := jsonField(t, body, "version"); v != 3 {
		t.Fatalf("post-restart version = %v", v)
	}
}
