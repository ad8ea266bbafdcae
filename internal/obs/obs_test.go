package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Add(-2)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	// Re-registering the same shape returns the same instrument.
	if r.Counter("test_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency")
	// 100 observations at 1ms, 100 at 100ms: p50 inside the 1ms bucket
	// region, p99 near 100ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
		h.Observe(100 * time.Millisecond)
	}
	if got := h.Count(); got != 200 {
		t.Fatalf("count = %d, want 200", got)
	}
	if got, want := h.Sum(), 200*50500*time.Microsecond; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want (0, 2ms]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 50*time.Millisecond || p99 > 200*time.Millisecond {
		t.Fatalf("p99 = %v, want [50ms, 200ms]", p99)
	}
}

func TestHistogramZero(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_zero_seconds", "z")
	if h.Quantile(0.99) != 0 {
		t.Fatal("quantile of empty histogram != 0")
	}
	h.Observe(-time.Second) // clamped, lands in the lowest bucket
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_req_total", "requests", "route", "code")
	v.With("/docs", "200").Add(3)
	v.With("/docs", "404").Inc()
	if v.With("/docs", "200").Value() != 3 {
		t.Fatal("child not shared across With calls")
	}
	hv := r.HistogramVec("test_h_seconds", "h", "m")
	hv.With("a").Observe(time.Millisecond)
	if hv.With("a").Count() != 1 {
		t.Fatal("histogram child lost an observation")
	}
}

// TestVecWithExistingChildAllocs: resolving an existing child of a
// one-label family — what every evaluation, commit and view read does —
// allocates nothing.
func TestVecWithExistingChildAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_eval_seconds", "eval", "method")
	c := r.CounterVec("test_reads_total", "reads", "source")
	h.With("topdown")
	c.With("cache")
	method, source := "topdown", "cache"
	if n := testing.AllocsPerRun(100, func() {
		h.With(method).Observe(time.Microsecond)
		c.With(source).Inc()
	}); n != 0 {
		t.Fatalf("With on existing one-label children allocates %v times", n)
	}
}

func TestRegistryVersionAdvances(t *testing.T) {
	r := NewRegistry()
	v0 := r.Version()
	c := r.CounterVec("test_total", "t", "l")
	v1 := r.Version()
	if v1 <= v0 {
		t.Fatal("version did not advance on family registration")
	}
	c.With("x")
	if r.Version() <= v1 {
		t.Fatal("version did not advance on child creation")
	}
	c.With("x") // existing child: no bump
	v2 := r.Version()
	c.With("x")
	if r.Version() != v2 {
		t.Fatal("version advanced on a repeat With")
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, func() { r.Counter("bad name", "h") })
	mustPanic(t, func() { r.CounterVec("ok_total", "h", "bad-label") })
	mustPanic(t, func() { r.HistogramVec("h_seconds", "h", "le") })
	r.Counter("shape_total", "h")
	mustPanic(t, func() { r.Gauge("shape_total", "h") })
	mustPanic(t, func() { r.CounterVec("shape_total", "h", "l") })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestTrace(t *testing.T) {
	tr := NewTrace()
	tr.SetMethod("topdown")
	tr.SetCacheHit(true)
	tr.AddCompile(2 * time.Millisecond)
	tr.AddEval(3 * time.Millisecond)
	tr.SetDocNodes(42)
	var a, b uint32 = 100, 24
	tr.AddVisitCounter(&a)
	tr.AddVisitCounter(&b)
	if tr.Method() != "topdown" {
		t.Fatalf("method = %q", tr.Method())
	}
	if hit, known := tr.CacheHit(); !hit || !known {
		t.Fatal("cache hit not recorded")
	}
	if tr.NodesVisited() != 124 {
		t.Fatalf("nodes visited = %d, want 124", tr.NodesVisited())
	}
	if tr.Compile() != 2*time.Millisecond || tr.Eval() != 3*time.Millisecond {
		t.Fatal("durations not recorded")
	}
	if tr.DocNodes() != 42 {
		t.Fatal("doc nodes not recorded")
	}
}

func TestTraceContext(t *testing.T) {
	if TraceFrom(nil) != nil {
		t.Fatal("TraceFrom(nil) != nil")
	}
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace not carried by context")
	}
}

// TestHistogramConcurrency hammers one histogram from 8 writers while
// scraping the registry concurrently — the -race proof that Observe and
// WriteTo never synchronize wrongly, and that cumulative bucket counts
// in any scrape are monotonic.
func TestHistogramConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_conc_seconds", "concurrent", "writer")
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		child := h.With("w")
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				child.Observe(time.Duration(1+i%1000) * time.Microsecond)
			}
		}(w)
	}
	var scrapes sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := r.WriteTo(&sb); err != nil {
					t.Error(err)
					return
				}
				assertMonotonicBuckets(t, sb.String())
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if got := h.With("w").Count(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
}

// assertMonotonicBuckets parses one exposition and checks every
// histogram's cumulative bucket counts never decrease.
func assertMonotonicBuckets(t *testing.T, text string) {
	t.Helper()
	var prev uint64
	var inBuckets bool
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "_bucket{") {
			inBuckets = false
			continue
		}
		var v uint64
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample %q", line)
			return
		}
		for _, ch := range fields[1] {
			v = v*10 + uint64(ch-'0')
		}
		if inBuckets && v < prev {
			t.Errorf("bucket counts decreased: %q after %d", line, prev)
			return
		}
		prev, inBuckets = v, true
	}
}
