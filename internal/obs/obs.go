// Package obs is the unified observability layer: a dependency-free,
// goroutine-safe metrics registry (counters, gauges, fixed-bucket
// latency histograms) with Prometheus text exposition, plus a
// per-request trace context the serving layer turns into EXPLAIN
// output and slow-query log lines.
//
// The design optimizes the instrumentation points, not the scrape: the
// hot path of every instrument is one package-level atomic load (the
// kill switch) plus one or two atomic adds — no locks, no allocation,
// no map lookups. Labeled families (CounterVec and friends) resolve
// their children under a mutex, so callers on hot paths resolve once at
// init and retain the child. Scraping walks the families under the
// registry lock but reads the instrument values with plain atomic
// loads; a scrape is a consistent-enough point-in-time reading, never a
// stop-the-world.
//
// Subsystems register their instruments on the Default registry at
// package init and increment them unconditionally; SetEnabled(false)
// turns every counter add and histogram observation into a no-op.
// Gauges ignore the kill switch: their Inc/Dec pairs must stay balanced
// across a toggle.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// disabled is the global kill switch, inverted so the zero value means
// enabled. Counter adds and histogram observations check it; gauges and
// traces do not.
var disabled atomic.Bool

// SetEnabled arms or disarms every counter and histogram in the
// process. Registration, exposition and gauges are unaffected.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether counters and histograms record.
func Enabled() bool { return !disabled.Load() }

// Counter is a monotonically increasing value. The zero value is usable
// but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. A no-op while the package is disabled.
func (c *Counter) Add(n uint64) {
	if disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that goes up and down. Gauge operations ignore the
// kill switch so Inc/Dec pairs stay balanced across a toggle.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram bucket upper bounds: powers of
// two from 1µs to ~8.4s, sized for the latencies this system produces
// (sub-millisecond evals up to multi-second checkpoint and recovery
// work). 24 buckets keep p50/p99 interpolation within a factor of two
// everywhere.
var DefBuckets = defBuckets()

func defBuckets() []time.Duration {
	out := make([]time.Duration, 24)
	b := time.Microsecond
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Histogram is a fixed-bucket latency histogram: cumulative-on-read
// bucket counters plus a nanosecond sum. Observe is lock-free — one
// binary search over the bounds and two atomic adds.
type Histogram struct {
	bounds []time.Duration // sorted upper bounds; counts has one extra +Inf slot
	counts []atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration. A no-op while the package is disabled.
func (h *Histogram) Observe(d time.Duration) {
	if disabled.Load() {
		return
	}
	if d < 0 {
		d = 0
	}
	h.sum.Add(int64(d))
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
}

// Since is Observe(time.Since(start)) — the idiomatic defer form.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing it, the standard histogram_quantile
// estimate. Zero observations estimate zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if seen+c < rank || c == 0 {
			seen += c
			continue
		}
		var lo, hi float64
		if i > 0 {
			lo = float64(h.bounds[i-1])
		}
		if i < len(h.bounds) {
			hi = float64(h.bounds[i])
		} else {
			// +Inf bucket: report its lower bound, the best finite answer.
			return time.Duration(lo)
		}
		return time.Duration(lo + (hi-lo)*(rank-seen)/c)
	}
	return time.Duration(h.bounds[len(h.bounds)-1])
}

// metricKind discriminates exposition TYPE lines.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instrument of a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	gaugeFn     func() float64
}

// family is one named metric family: metadata plus its children. An
// unlabeled instrument is a family with a single child carrying no
// label values.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []time.Duration // histograms only

	mu       sync.Mutex
	children []*child
	byKey    map[string]*child
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry is a set of metric families. Families register once (by
// name; re-registering a name with the same shape returns the existing
// family, a different shape panics — instrument registration is
// programmer-controlled init-time code). The zero value is not usable;
// use NewRegistry or the package Default.
type Registry struct {
	mu      sync.Mutex
	fams    map[string]*family
	ordered []*family
	version atomic.Uint64
	start   time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), start: time.Now()}
}

// Default is the process-wide registry every subsystem registers on.
var Default = NewRegistry()

// Version returns the registration version: it increments whenever a
// family or labeled child is created, so a scraper (or /healthz) can
// cheaply detect that the set of exposed series changed.
func (r *Registry) Version() uint64 { return r.version.Load() }

// Start returns when the registry was created — process start for the
// Default registry, which /healthz turns into uptime.
func (r *Registry) Start() time.Time { return r.start }

func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []time.Duration) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds,
		byKey: make(map[string]*child)}
	r.fams[name] = f
	r.ordered = append(r.ordered, f)
	r.version.Add(1)
	return f
}

// childOf resolves (creating if absent) the child with the given label
// values.
func (r *Registry) childOf(f *family, values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := ""
	for _, v := range values {
		key += v + "\x1f"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.byKey[key]; c != nil {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.byKey[key] = c
	f.children = append(f.children, c)
	r.version.Add(1)
	return c
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return r.childOf(f, nil).counter
}

// Gauge registers (or returns) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return r.childOf(f, nil).gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// uptime, queue depths owned by other structures, and similar readings
// that are cheaper to compute than to maintain.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	c := r.childOf(f, nil)
	f.mu.Lock()
	c.gaugeFn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) the unlabeled histogram name with
// DefBuckets bounds.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, kindHistogram, nil, DefBuckets)
	return r.childOf(f, nil).hist
}

// HistogramBuckets registers (or returns) the unlabeled histogram name
// with caller-chosen bucket upper bounds — for instruments that do not
// measure time (the bounds are still expressed as durations because the
// exposition renders all histogram samples in seconds: observe
// dimensionless ratios as time.Duration(ratio * float64(time.Second))
// and the scrape reads them back as plain numbers).
func (r *Registry) HistogramBuckets(name, help string, bounds []time.Duration) *Histogram {
	f := r.register(name, help, kindHistogram, nil, bounds)
	return r.childOf(f, nil).hist
}

// CounterVec is a counter family with labels; resolve children with
// With (and retain them — resolution takes the family lock).
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec registers (or returns) the labeled counter family name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r: r, f: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the child for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.r.childOf(v.f, values).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct {
	r *Registry
	f *family
}

// GaugeVec registers (or returns) the labeled gauge family name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r: r, f: r.register(name, help, kindGauge, labels, nil)}
}

// With returns the child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.r.childOf(v.f, values).gauge
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	r *Registry
	f *family
}

// HistogramVec registers (or returns) the labeled histogram family name
// with DefBuckets bounds.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r: r, f: r.register(name, help, kindHistogram, labels, DefBuckets)}
}

// With returns the child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.r.childOf(v.f, values).hist
}

// families returns a name-sorted copy of the registered families.
func (r *Registry) families() []*family {
	r.mu.Lock()
	out := append([]*family(nil), r.ordered...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// seconds renders a duration as a Prometheus seconds value.
func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }

// isInf reports the +Inf bucket sentinel.
func isInf(f float64) bool { return math.IsInf(f, +1) }
