package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xtq"
	"xtq/internal/replica"
)

// startDurableServer runs a primary xtqd (durable store + /wal feed) on
// an httptest listener.
func startDurableServer(t *testing.T) (*xtq.Store, *httptest.Server) {
	t.Helper()
	st, err := xtq.OpenStore(t.TempDir(), nil, xtq.WithFsync(xtq.FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(newServer(st, 5*time.Second, 1<<20))
	t.Cleanup(ts.Close)
	return st, ts
}

// startFollowerServer runs a follower xtqd replicating primary.
func startFollowerServer(t *testing.T, primary string, catchup time.Duration, opts ...xtq.FollowOption) (*xtq.Follower, *httptest.Server) {
	t.Helper()
	fol, err := xtq.Follow(primary, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	ts := httptest.NewServer(newFollowerServer(fol, 5*time.Second, 1<<20, catchup))
	t.Cleanup(ts.Close)
	return fol, ts
}

// noRedirect performs a request without following redirects.
func noRedirect(t *testing.T, method, url, body string, hdr map[string]string) (int, http.Header, string) {
	t.Helper()
	c := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := c.Do(req)
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

func healthJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	_, _, body := do(t, "GET", url+"/healthz", "", nil)
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("healthz JSON %q: %v", body, err)
	}
	return m
}

func TestFollowerServerRedirectsWritesAndServesReads(t *testing.T) {
	_, pts := startDurableServer(t)
	if code, _, body := do(t, "PUT", pts.URL+"/docs/parts", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, body)
	}
	_, fts := startFollowerServer(t, pts.URL, 3*time.Second)

	// healthz reports roles and replication position.
	ph := healthJSON(t, pts.URL)
	if ph["role"] != "primary" || ph["wal"] == nil {
		t.Fatalf("primary healthz = %v", ph)
	}
	fh := healthJSON(t, fts.URL)
	if fh["role"] != "follower" || fh["primary"] != pts.URL || fh["replication"] == nil {
		t.Fatalf("follower healthz = %v", fh)
	}

	// Writes on the follower redirect to the primary with the same path.
	up := `transform copy $a := doc("parts") modify do delete $a//price return $a`
	code, hdr, _ := noRedirect(t, "POST", fts.URL+"/docs/parts/update", up, nil)
	if code != http.StatusTemporaryRedirect || hdr.Get("Location") != pts.URL+"/docs/parts/update" {
		t.Fatalf("follower write = %d Location %q", code, hdr.Get("Location"))
	}
	// A client that follows the 307 (Go's default) lands the commit.
	code, _, body := do(t, "POST", fts.URL+"/docs/parts/update", up, nil)
	if code != http.StatusOK || jsonField(t, body, "version") != 2 {
		t.Fatalf("redirected update: %d %s", code, body)
	}

	// Read-your-writes: version 2 through the follower, never stale.
	code, hdr, got := do(t, "GET", fts.URL+"/docs/parts", "", map[string]string{"X-Xtq-Min-Version": "2"})
	if code != http.StatusOK || strings.Contains(got, "<price>") {
		t.Fatalf("min-version read: %d %s", code, got)
	}
	if v, _ := strconv.ParseUint(hdr.Get("X-Xtq-Version"), 10, 64); v < 2 {
		t.Fatalf("min-version read served version %q", hdr.Get("X-Xtq-Version"))
	}
	// If-None-Match at the served version → 304.
	etag := hdr.Get("ETag")
	if code, _, _ := do(t, "GET", fts.URL+"/docs/parts", "", map[string]string{"If-None-Match": etag}); code != http.StatusNotModified {
		t.Fatalf("If-None-Match %s: %d, want 304", etag, code)
	}
	// Garbage min-version → 400.
	if code, _, _ := do(t, "GET", fts.URL+"/docs/parts", "", map[string]string{"X-Xtq-Min-Version": "zap"}); code != http.StatusBadRequest {
		t.Fatalf("bad min-version: %d", code)
	}

	// A min-version the follower cannot reach within -catchup-wait
	// redirects to the primary (302) instead of serving stale bytes.
	sts := httptest.NewServer(newFollowerServer(mustFollow(t, pts.URL), 5*time.Second, 1<<20, 30*time.Millisecond))
	defer sts.Close()
	code, hdr, _ = noRedirect(t, "GET", sts.URL+"/docs/parts", "", map[string]string{"X-Xtq-Min-Version": "99"})
	if code != http.StatusFound || hdr.Get("Location") != pts.URL+"/docs/parts" {
		t.Fatalf("unreachable min-version = %d Location %q, want 302 to primary", code, hdr.Get("Location"))
	}

	// Promotion: writes commit locally, healthz flips role.
	if code, _, _ := do(t, "POST", fts.URL+"/admin/promote", "", nil); code != http.StatusOK {
		t.Fatalf("promote: %d", code)
	}
	code, _, body = do(t, "POST", fts.URL+"/docs/parts/update",
		`transform copy $a := doc("parts") modify do insert <after-failover/> into $a/db return $a`, nil)
	if code != http.StatusOK || jsonField(t, body, "version") != 3 {
		t.Fatalf("post-promotion update: %d %s", code, body)
	}
	if h := healthJSON(t, fts.URL); h["role"] != "primary" {
		t.Fatalf("promoted healthz = %v", h)
	}
}

func mustFollow(t *testing.T, primary string, opts ...xtq.FollowOption) *xtq.Follower {
	t.Helper()
	fol, err := xtq.Follow(primary, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	return fol
}

// laggingTransport delays every WAL segment response, keeping the
// follower measurably behind its primary.
type laggingTransport struct {
	delay time.Duration
	on    atomic.Bool
}

func (lt *laggingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && lt.on.Load() && strings.Contains(req.URL.Path, "/wal/segments/") {
		time.Sleep(lt.delay)
	}
	return resp, err
}

func TestRouterReadYourWritesThroughLaggingFollower(t *testing.T) {
	_, pts := startDurableServer(t)
	if code, _, body := do(t, "PUT", pts.URL+"/docs/parts", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, body)
	}

	lt := &laggingTransport{delay: 80 * time.Millisecond}
	_, fts := startFollowerServer(t, pts.URL, 5*time.Second,
		xtq.WithFollowClient(&http.Client{Transport: lt}),
		xtq.WithFollowPoll(20*time.Millisecond))
	lt.on.Store(true)

	rt := httptest.NewServer(newRouter([]shard{{primary: pts.URL, replicas: []string{fts.URL}}}))
	defer rt.Close()

	if h := healthJSON(t, rt.URL); h["role"] != "router" {
		t.Fatalf("router healthz = %v", h)
	}

	// Commit through the router, read back through the router with
	// X-Xtq-Min-Version — the read goes to the lagging follower, which
	// either catches up or bounces it to the primary; either way the
	// response is never older than the write we just made.
	for i := 0; i < 8; i++ {
		up := fmt.Sprintf(`transform copy $a := doc("parts") modify do insert <w n="%d"/> into $a/db return $a`, i)
		code, _, body := do(t, "POST", rt.URL+"/docs/parts/update", up, nil)
		if code != http.StatusOK {
			t.Fatalf("routed update %d: %d %s", i, code, body)
		}
		v := jsonField(t, body, "version")
		code, hdr, got := do(t, "GET", rt.URL+"/docs/parts", "",
			map[string]string{"X-Xtq-Min-Version": strconv.Itoa(int(v))})
		if code != http.StatusOK {
			t.Fatalf("routed read %d: %d %s", i, code, got)
		}
		served, _ := strconv.ParseFloat(hdr.Get("X-Xtq-Version"), 64)
		if served < v {
			t.Fatalf("stale read: wrote version %v, served %v", v, served)
		}
		if !strings.Contains(got, fmt.Sprintf(`<w n="%d"/>`, i)) {
			t.Fatalf("read %d missing just-written element: %s", i, got)
		}
	}
}

func TestRouterShardsDocumentsAcrossPrimaries(t *testing.T) {
	stA, ptsA := startDurableServer(t)
	stB, ptsB := startDurableServer(t)
	rt := httptest.NewServer(newRouter([]shard{{primary: ptsA.URL, replicas: []string{ptsA.URL}},
		{primary: ptsB.URL, replicas: []string{ptsB.URL}}}))
	defer rt.Close()

	// Ingest a spread of documents through the single namespace. The
	// shard keys are the primaries' URLs, whose ports differ from run to
	// run, so the names are chosen by their computed owner: candidates
	// are drawn until each shard owns at least two.
	urls := []string{ptsA.URL, ptsB.URL}
	owned := map[string]int{}
	var names []string
	for i := 0; owned[ptsA.URL] < 2 || owned[ptsB.URL] < 2; i++ {
		n := fmt.Sprintf("doc%d", i)
		owned[replica.PickNode(n, urls)]++
		names = append(names, n)
	}
	for _, n := range names {
		if code, _, body := do(t, "PUT", rt.URL+"/docs/"+n, testDoc, nil); code != http.StatusCreated {
			t.Fatalf("ingest %s: %d %s", n, code, body)
		}
	}
	if stA.Len() != owned[ptsA.URL] || stB.Len() != owned[ptsB.URL] {
		t.Fatalf("sharding: %d/%d documents, want %d/%d by rendezvous owner",
			stA.Len(), stB.Len(), owned[ptsA.URL], owned[ptsB.URL])
	}
	if stA.Len()+stB.Len() != len(names) {
		t.Fatalf("lost documents: %d+%d != %d", stA.Len(), stB.Len(), len(names))
	}

	// Reads route to the owner: every document is retrievable.
	for _, n := range names {
		if code, _, _ := do(t, "GET", rt.URL+"/docs/"+n, "", nil); code != http.StatusOK {
			t.Fatalf("routed get %s: %d", n, code)
		}
	}
	// The merged listing shows the whole namespace.
	_, _, body := do(t, "GET", rt.URL+"/docs", "", nil)
	for _, n := range names {
		if !strings.Contains(body, `"`+n+`"`) {
			t.Fatalf("merged listing missing %s: %s", n, body)
		}
	}

	// Views broadcast: registered once through the router, servable on
	// documents living on either shard.
	stack := `["transform copy $a := doc(\"x\") modify do delete $a//price return $a"]`
	if code, _, body := do(t, "PUT", rt.URL+"/views/public", stack, nil); code != http.StatusCreated {
		t.Fatalf("routed view: %d %s", code, body)
	}
	for _, n := range names {
		code, _, got := do(t, "GET", rt.URL+"/docs/"+n+"/views/public", "", nil)
		if code != http.StatusOK || strings.Contains(got, "<price>") {
			t.Fatalf("view over %s: %d %s", n, code, got)
		}
	}
}

// A follower serves /watch off its replication tail: commits written
// through the primary surface as SSE events on the follower in order,
// and the same stream keeps running — gapless — after the follower is
// promoted and commits start landing locally.
func TestFollowerWatchStreamsReplicatedCommitsAcrossPromote(t *testing.T) {
	_, pts := startDurableServer(t)
	if code, _, body := do(t, "PUT", pts.URL+"/docs/parts", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("ingest: %d %s", code, body)
	}
	_, fts := startFollowerServer(t, pts.URL, 3*time.Second)

	// Subscribe on the follower having seen version 1; the floor makes
	// this safe even if replication has not applied version 1 yet.
	ch, cancel := sseSubscribe(t, fts.URL+"/docs/parts/watch?from=1")
	defer cancel()

	for i := 0; i < 3; i++ {
		upd := `transform copy $a := doc("parts") modify do insert <mark/> into $a/db return $a`
		if code, _, body := do(t, "POST", pts.URL+"/docs/parts/update", upd, nil); code != http.StatusOK {
			t.Fatalf("primary update %d: %d %s", i, code, body)
		}
	}
	for want := uint64(2); want <= 4; want++ {
		ev := nextEvent(t, ch)
		if ev.Type != "change" || ev.Ver != want {
			t.Fatalf("replicated event: want change@%d, got %+v", want, ev)
		}
	}

	// Promote the follower; local commits continue the same feed.
	if code, _, _ := do(t, "POST", fts.URL+"/admin/promote", "", nil); code != http.StatusOK {
		t.Fatal("promote")
	}
	code, _, body := do(t, "POST", fts.URL+"/docs/parts/update",
		`transform copy $a := doc("parts") modify do insert <after-failover/> into $a/db return $a`, nil)
	if code != http.StatusOK || jsonField(t, body, "version") != 5 {
		t.Fatalf("post-promotion update: %d %s", code, body)
	}
	ev := nextEvent(t, ch)
	if ev.Type != "change" || ev.Ver != 5 {
		t.Fatalf("post-promotion event: %+v", ev)
	}
}
