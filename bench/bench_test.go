package main

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	// At least ten samples must lie beyond the percentile.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

// fakeClock advances only when slept on or when the fake server works;
// oversleep models a timer that fires late.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.oversleep) }

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0), oversleep: 1 * ms}
	sched := []scheduled{{due: 10 * ms, req: &request{}}, {due: 20 * ms, req: &request{}}, {due: 30 * ms, req: &request{}}}
	// One connection, 15 ms of service: the second and third requests
	// find it busy when they fall due.
	got := runOpenLoop(clk, sched, 1, func(int, *request) result {
		clk.now = clk.now.Add(15 * ms)
		return result{ok: true}
	})
	want := []struct {
		sent, done, latency, lateness time.Duration
		slept                         bool
	}{
		{11 * ms, 26 * ms, 15 * ms, 1 * ms, true},   // timer fired 1 ms late: generator lateness, not latency
		{26 * ms, 41 * ms, 21 * ms, 6 * ms, false},  // waited 6 ms for the connection: counted from due
		{41 * ms, 56 * ms, 26 * ms, 11 * ms, false}, // the backlog grows
	}
	for i, w := range want {
		g := got[i]
		if g.sent != w.sent || g.done != w.done || g.latency() != w.latency || g.lateness() != w.lateness || g.slept != w.slept {
			t.Errorf("request %d: sent %v done %v latency %v lateness %v slept %v; want %+v",
				i, g.sent, g.done, g.latency(), g.lateness(), g.slept, w)
		}
	}
}

// metricsBefore and metricsAfter are trimmed captures of xtqd's
// GET /metrics around three queries.
const metricsBefore = `# HELP xtq_engine_cache_hits_total Engine LRU cache hits by cache (query, plan, verdict).
# TYPE xtq_engine_cache_hits_total counter
xtq_engine_cache_hits_total{cache="plan",role="primary"} 2
xtq_engine_cache_hits_total{cache="query",role="primary"} 4
xtq_engine_cache_misses_total{cache="query",role="primary"} 4
# TYPE xtqd_http_request_seconds histogram
xtqd_http_request_seconds_bucket{role="primary",route="POST /docs/{name}/query",le="0.004096"} 0
xtqd_http_request_seconds_bucket{role="primary",route="POST /docs/{name}/query",le="0.008192"} 1
xtqd_http_request_seconds_bucket{role="primary",route="POST /docs/{name}/query",le="0.016384"} 1
xtqd_http_request_seconds_bucket{role="primary",route="POST /docs/{name}/query",le="+Inf"} 1
xtqd_http_request_seconds_sum{role="primary",route="POST /docs/{name}/query"} 0.006
xtqd_http_request_seconds_count{role="primary",route="POST /docs/{name}/query"} 1
`

const metricsAfter = `# TYPE xtq_engine_cache_hits_total counter
xtq_engine_cache_hits_total{cache="plan",role="primary"} 2
xtq_engine_cache_hits_total{cache="query",role="primary"} 7
xtq_engine_cache_misses_total{cache="query",role="primary"} 5
xtq_plan_decisions_total{method="topdown",role="primary"} 3
xtq_slow_label{msg="a \"quoted\" \\ value",role="primary"} 1
xtqd_http_request_seconds_bucket{role="primary",route="POST /docs/{name}/query",le="0.004096"} 0
xtqd_http_request_seconds_bucket{role="primary",route="POST /docs/{name}/query",le="0.008192"} 3
xtqd_http_request_seconds_bucket{role="primary",route="POST /docs/{name}/query",le="0.016384"} 5
xtqd_http_request_seconds_bucket{role="primary",route="POST /docs/{name}/query",le="+Inf"} 5
xtqd_http_request_seconds_sum{role="primary",route="POST /docs/{name}/query"} 0.046
xtqd_http_request_seconds_count{role="primary",route="POST /docs/{name}/query"} 5
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(metricsAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if got := d.sum("xtq_engine_cache_hits_total", "cache=query"); got != 3 {
		t.Errorf("query hits delta = %v, want 3", got)
	}
	if got := d.sum("xtq_engine_cache_hits_total"); got != 3 {
		t.Errorf("all hits delta = %v, want 3", got)
	}
	// A series that first appears in the second scrape counts from zero.
	if got := d.sum("xtq_plan_decisions_total", "method=topdown"); got != 3 {
		t.Errorf("new series delta = %v, want 3", got)
	}
	if got := ratio(d.sum("xtq_engine_cache_hits_total", "cache=query"), d.sum("xtq_engine_cache_misses_total", "cache=query")); got != 0.75 {
		t.Errorf("hit ratio = %v, want 0.75", got)
	}
	if got := after.sum("xtq_slow_label", `msg=a "quoted" \ value`); got != 1 {
		t.Errorf("escaped label value not parsed: %v", got)
	}
	// Delta buckets: ≤8.192ms: 2, ≤16.384ms: 4, total 4. The median
	// (rank 2) is the upper edge of the first non-empty bucket; the
	// 75th percentile (rank 3) lies halfway through the next.
	route := "route=POST /docs/{name}/query"
	if got := d.histQuantile("xtqd_http_request_seconds", 0.5, route); math.Abs(got-0.008192) > 1e-9 {
		t.Errorf("p50 = %v, want 0.008192", got)
	}
	if got := d.histQuantile("xtqd_http_request_seconds", 0.75, route); math.Abs(got-0.012288) > 1e-9 {
		t.Errorf("p75 = %v, want 0.012288", got)
	}
	if got := d.histQuantile("xtqd_http_request_seconds", 0.5, "route=GET /nothing"); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("broken_line_without_value\n")); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 30, Parent: 0},
		{Name: "b", StartNS: 20, EndNS: 50, Parent: 0}, // overlaps a: 10..50 is covered once
		{Name: "c", StartNS: 60, EndNS: 70, Parent: 0},
		{Name: "c.inner", StartNS: 62, EndNS: 66, Parent: 3}, // a grandchild is its parent's business
	}
	want := []int64{50, 20, 30, 6, 4}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := childNames(spans, "request"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("childNames = %v", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 7)
	r.time("child", 7, func() {})
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != 0 || r.spans[0].Parent != -1 || r.spans[1].ReqID != 7 {
		t.Errorf("spans = %+v", r.spans)
	}
	if r.spans[1].StartNS < r.spans[0].StartNS || r.spans[1].EndNS > r.spans[0].EndNS {
		t.Errorf("child not inside parent: %+v", r.spans)
	}
}

func TestGeneratorsReproducible(t *testing.T) {
	a := poissonArrivals(rand.New(rand.NewSource(7)), 1000, 5000)
	b := poissonArrivals(rand.New(rand.NewSource(7)), 1000, 5000)
	c := poissonArrivals(rand.New(rand.NewSource(8)), 1000, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same arrivals")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals not ascending")
		}
	}
	if mean := a[len(a)-1].Seconds() / float64(len(a)); math.Abs(mean-0.001) > 0.0001 {
		t.Errorf("mean gap %v s at 1000/s", mean)
	}

	draw := func(seed int64) []int {
		pick := zipfPicker(rand.New(rand.NewSource(seed)), 1.1, 512)
		out := make([]int, 20000)
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	z1, z2 := draw(3), draw(3)
	if !reflect.DeepEqual(z1, z2) {
		t.Error("same seed, different Zipf draws")
	}
	counts := make([]int, 512)
	for _, d := range z1 {
		if d < 0 || d >= 512 {
			t.Fatalf("Zipf draw %d out of range", d)
		}
		counts[d]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[200] {
		t.Errorf("Zipf popularity not decreasing: %d %d %d %d", counts[0], counts[1], counts[10], counts[200])
	}
}

func TestWorkloadsReproducibleFromSeed(t *testing.T) {
	for _, info := range workloads {
		if info.name == "mixed_small_docs" && testing.Short() {
			continue
		}
		a, err := info.build(5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := info.build(5)
		c, _ := info.build(6)
		ra, rb, rc := sampleRequests(a, 60), sampleRequests(b, 60), sampleRequests(c, 60)
		same := func(x, y []*request) bool {
			for i := range x {
				if *x[i] != *y[i] {
					return false
				}
			}
			return true
		}
		if !same(ra, rb) || !bytes.Equal(a.docs[0].xml, b.docs[0].xml) {
			t.Errorf("%s: same seed, different inputs", info.name)
		}
		if same(ra, rc) || bytes.Equal(a.docs[0].xml, c.docs[0].xml) {
			t.Errorf("%s: different seeds, same inputs", info.name)
		}
	}
}

func TestMixedQueryTextsExceedTheQueryCache(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		seen[mixedQueryText(rng, "d", 25)] = true
	}
	if len(seen) < 8*128 {
		t.Errorf("%d distinct query texts; want far more than the 128-entry cache", len(seen))
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "1234 (xt qd) x) S 1 1234 1234 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 8 0 100 1000000 200 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3000 { // (250+50) ticks at 100 Hz
		t.Errorf("cpu = %v ms, want 3000", got)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("garbage stat line parsed")
	}
}

func TestMetricNamesMatchSpec(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers, names []string
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, code = %v", e2e, endToEndNames)
	}
	if !reflect.DeepEqual(layers, perLayerNames) {
		t.Errorf("per_layer in BENCHMARK.json = %v, code = %v", layers, perLayerNames)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads in BENCHMARK.json = %v, code = %v", names, want)
	}
}

func TestOracleDetectsWrongAnswers(t *testing.T) {
	doc, err := genDoc("d", smallFactor, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{name: "t", docs: []docInput{doc}, view: viewDeleteUSRenamePerson("d")}
	o, err := newOracle(r)
	if err != nil {
		t.Fatal(err)
	}
	get := getDocReq(0, "d")
	if err := o.check(get, 1, doc.xml); err != nil {
		t.Errorf("the generated document is not its own reference: %v", err)
	}
	bad := append([]byte(nil), doc.xml...)
	bad[len(bad)/2] ^= 1
	if err := o.check(get, 1, bad); err == nil {
		t.Error("a flipped byte passed the oracle")
	}
	if err := o.check(get, 2, doc.xml); err == nil {
		t.Error("a version no acknowledged commit produced passed the oracle")
	}
	// After an acknowledged commit the reference is the updated state.
	up := updateReq(0, "d", "", transform("d", `insert <bench_note/> into $a/site/people/person[@id = "person3"]`))
	o.committed(up, 2)
	if err := o.check(get, 2, doc.xml); err == nil {
		t.Error("the base document passed as the state after an insert")
	}
	want, err := o.expected(get, up.after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte("<bench_note/>")) || o.check(get, 2, want) != nil {
		t.Error("the updated state is not accepted at the version that produced it")
	}
	// The view hides persons behind members; the reference must too.
	q := viewQueryReq(0, "d", `for $x in /site/people/member[@id = "person3"] return $x`)
	res, err := o.expected(q, up.after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(res, []byte(`<member id="person3">`)) || !bytes.Contains(res, []byte("<bench_note/>")) {
		t.Errorf("view reference = %s", res)
	}
}

// TestQuickSuite spawns a real xtqd and runs every workload, traced and
// untraced, in -quick mode with the oracle on.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns xtqd; skipped with -short")
	}
	cfg := config{quick: true, seed: 1, buildDir: t.TempDir(), outDir: filepath.Join(t.TempDir(), "out")}
	e, cleanup, err := newEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	start := time.Now()
	if err := suite(e, cfg); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 60*time.Second {
		t.Errorf("quick suite took %v, want at most 60 s", d)
	}
	for _, w := range workloads {
		spans := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if m, _ := filepath.Glob(spans); len(m) != 1 {
			t.Errorf("no span file %s", spans)
		}
	}
}

// TestUserQueryResultsAreSmall pins the property view_user_query rests
// on: every user query's result is at most 5 % of the document, so
// serialisation stays negligible there.
func TestUserQueryResultsAreSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates 12 reference queries over the 2 MB document")
	}
	r, err := buildViewUserQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(r)
	if err != nil {
		t.Fatal(err)
	}
	limit, nonEmpty := len(r.docs[0].xml)/20, 0
	for _, text := range userQueryTexts() {
		got, err := o.expected(viewQueryReq(0, "x", text), "")
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if len(got) > limit {
			t.Errorf("%s: result is %d bytes, more than 5%% of the %d-byte document", text, len(got), len(r.docs[0].xml))
		}
		if len(got) > len("<result></result>") {
			nonEmpty++
		}
	}
	if nonEmpty < len(userQueries)-1 {
		t.Errorf("only %d of %d user queries select anything", nonEmpty, len(userQueries))
	}
}
