package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// runResult is one run of one workload: either the untraced run that
// yields the end-to-end metrics or the traced run that yields the
// per-layer ones.
type runResult struct {
	Workload      string   `json:"workload"`
	Seed          int64    `json:"seed"`
	Trace         int      `json:"trace"`
	Load          string   `json:"load"`
	WindowSeconds float64  `json:"window_seconds"`
	Correct       bool     `json:"correct"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	OracleChecked int      `json:"oracle_checked"`
	Metrics       []metric `json:"metrics"`
	Problems      []string `json:"problems,omitempty"`

	layerTable []layerRow
	primary    opKind
}

func (r *runResult) add(m metric) { r.Metrics = append(r.Metrics, m) }

func (r *runResult) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.note("PROBLEM: "+format, args...)
}

// warn records something a reader of the numbers must know that is not
// a wrong answer of the program.
func (r *runResult) warn(format string, args ...any) {
	r.note("WARNING: "+format, args...)
}

func (r *runResult) note(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// setUp spawns a fresh xtqd and brings it to the state the workload
// measures from: every document PUT, the view registered, and one read
// answered and verified (which also forces the view's first
// materialization). It returns the elapsed time from just before the
// spawn.
func setUp(e *env, r *run, o *oracle) (*loadRun, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(e.xtqd, e.scratch, r.durable)
	if err != nil {
		return nil, 0, err
	}
	e.track(srv)
	l := newLoadRun(r, srv, o)
	fail := func(err error) (*loadRun, time.Duration, error) {
		l.client.close()
		e.stop(srv)
		return nil, 0, fmt.Errorf("set-up of %s: %w\n%s", r.name, err, srv.logs.String())
	}
	for _, d := range r.docs {
		if err := l.client.put(docPath(d.name), d.xml); err != nil {
			return fail(err)
		}
	}
	if len(r.view) > 0 {
		body, err := json.Marshal(r.view)
		if err != nil {
			return fail(err)
		}
		if err := l.client.put("/views/"+viewName, body); err != nil {
			return fail(err)
		}
	}
	res := l.senders[0].do(r.firstRead, true, false)
	if !res.ok {
		return fail(fmt.Errorf("first read: %s", res.err))
	}
	if err := o.check(r.firstRead, res.version, res.body); err != nil {
		return fail(err)
	}
	return l, time.Since(start), nil
}

func (c *client) put(path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("PUT %s: status %d: %s", path, resp.StatusCode, msg)
	}
	return nil
}

func (c *client) scrape() (promPage, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func (l *loadRun) shutdown(e *env) {
	l.client.close()
	e.stop(l.srv)
}

// Set-up is repeated at least minSetups times and then for as long as
// setupBudget lasts (up to runShape.setups): the single-document
// workloads set up in 0.1 s and need many repetitions for a steady
// median, the 512-document one takes over a second each time.
const (
	minSetups   = 3
	setupBudget = 3 * time.Second
)

// untracedRun measures the end-to-end metrics: set-up (repeated, the
// last instance is kept), warm-up, then the measurement windows with
// no ?explain=1 request and no /metrics scrape.
func untracedRun(e *env, info workloadInfo, seed int64, sh runShape) (*runResult, error) {
	r, err := info.build(seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(r)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: r.name, Seed: seed, Load: r.describe(), Correct: true,
		WindowSeconds: sh.window.Seconds(), primary: r.primary}

	// Set-up is repeated and setup_s is the median. Where the workload
	// has a commit probe it gets the first instance to itself: thousands
	// of commits leave a wide version chain and a heap several times
	// larger, and the read windows would measure that (RSS ×3,
	// throughput −15 % at the seed commit) instead of a freshly loaded
	// document. Probe windows and main windows alternate in time, so a
	// few seconds of interference from outside the box spoil at most a
	// minority of either kind.
	main, probeCommits := sh.split(r)
	var l, probeL *loadRun
	var setups []float64
	var ws, commitWS []*window
	var spent time.Duration
	for i := 0; i < sh.setups && (i < minSetups || spent < setupBudget); i++ {
		if l != nil && l != probeL {
			l.shutdown(e)
		}
		var d time.Duration
		if l, d, err = setUp(e, r, o); err != nil {
			if probeL != nil {
				probeL.shutdown(e)
			}
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
		if i == 0 && r.probe != nil {
			probeL = l
		}
	}
	defer l.shutdown(e)
	var probe []phase
	if probeL != nil {
		if probeL != l {
			defer probeL.shutdown(e)
		}
		counted := *r.probe
		counted.count = probeCommits
		probe = []phase{counted}
		if _, err := probeL.measure(probe, 0, false); err != nil {
			return nil, err
		}
	}
	if _, err := l.measure(r.phases, sh.warmup, false); err != nil {
		return nil, err
	}
	for i := 0; i < sh.windows && !l.srv.dead(); i++ {
		if probeL != nil && !probeL.srv.dead() {
			w, err := probeL.measure(probe, 0, false)
			if err != nil {
				return nil, err
			}
			commitWS = append(commitWS, w)
		}
		w, err := l.measure(r.phases, main, false)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	if probeL != nil && probeL != l {
		if probeL.srv.dead() {
			res.problem("the commit probe's xtqd died:\n%s", probeL.srv.logs.String())
		}
		res.verifyServer(probeL)
	}
	if r.probe == nil {
		commitWS = ws
	}
	if l.srv.dead() {
		res.problem("xtqd died during the run:\n%s", l.srv.logs.String())
	}
	res.addEndToEnd(ws, commitWS)
	res.add(newMetric("setup_s", "s", setups, len(setups)))
	if !l.srv.dead() {
		rss, err := l.srv.hwmMB()
		if err != nil {
			return nil, err
		}
		res.add(newMetric("server_rss_mb", "MB", []float64{rss}, 1))
	}
	if r.probe != nil {
		ws = append(ws, commitWS...)
	}
	res.finish(l, ws)
	return res, nil
}

// verifyServer runs the oracle over every read kept while l's server
// was driven, and over the final state of every document written.
func (res *runResult) verifyServer(l *loadRun) {
	checked, bad := l.verify()
	if !l.srv.dead() {
		n, b := l.verifyFinal()
		checked, bad = checked+n, append(bad, b...)
	}
	res.OracleChecked += checked
	res.Failed += len(bad)
	for _, m := range bad {
		res.problem("oracle mismatch: %s", m)
	}
}

// finish verifies the last server and totals attempts and failures.
func (res *runResult) finish(l *loadRun, ws []*window) {
	for _, w := range ws {
		res.Attempted += w.attempted
		res.Failed += w.failed
		for _, e := range w.errs {
			res.problem("request failed: %s", e)
		}
	}
	res.verifyServer(l)
	if res.Failed > 0 {
		res.Correct = false
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	res.add(metric{Name: "fail_share", Unit: "ratio", Value: share, Samples: res.Attempted})
}

// maxGenLateMS flags an open-loop run whose generator fired its timers
// later than two kernel ticks at the 99th percentile: it was starved of
// CPU, and arrivals no longer followed the seeded schedule. The run is
// reported with a warning, not failed: the box was slow, xtqd answered
// correctly, and the driver's medians over ten runs absorb the outlier.
const maxGenLateMS = 2.0

// perWindow computes one value per window.
func perWindow(ws []*window, f func(*window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// pooled is the p-th percentile over the samples of every window
// together, for the upper percentiles: one 4 s window of the big-document
// workloads holds fewer than ten samples beyond its own p99.
func pooled(ws []*window, series func(*window) []float64, p float64) float64 {
	var all []float64
	for _, w := range ws {
		all = append(all, series(w)...)
	}
	if len(all) == 0 {
		return 0
	}
	sort.Float64s(all)
	return percentile(all, p)
}

// tailMetric reports an upper percentile pooled over the windows; the
// spread still comes from the per-window values.
func tailMetric(name string, ws []*window, series func(*window) []float64, p float64, samples int) metric {
	m := newMetric(name, "ms", perWindow(ws, pct(series, p)), samples)
	m.Value = pooled(ws, series, p)
	return m
}

// pct returns a per-window percentile function over one latency series.
func pct(series func(*window) []float64, p float64) func(*window) float64 {
	return func(w *window) float64 {
		s := series(w)
		if len(s) == 0 {
			return 0
		}
		return percentile(sortedCopy(s), p)
	}
}

func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// addEndToEnd derives the end-to-end metrics from the windows: each is
// the median over the windows of a per-window value. commitWS are the
// windows the commit metrics come from: the same ones, or the probe's.
func (res *runResult) addEndToEnd(ws, commitWS []*window) {
	reads := func(w *window) []float64 { return w.readMS }
	commits := func(w *window) []float64 { return w.commitMS }
	nReads, nCommits, nLate := 0, 0, 0
	for _, w := range ws {
		nReads += len(w.readMS)
		nLate += len(w.lateMS)
	}
	for _, w := range commitWS {
		nCommits += len(w.commitMS)
	}
	res.add(newMetric("throughput_rps", "req/s", perWindow(ws, func(w *window) float64 { return rate(w.readOK, w.readDur) }), nReads))
	res.add(newMetric("lat_p50_ms", "ms", perWindow(ws, pct(reads, 50)), nReads))
	res.add(tailMetric("lat_p75_ms", ws, reads, 75, nReads))
	res.add(tailMetric("lat_p90_ms", ws, reads, 90, nReads))
	res.add(tailMetric("lat_p99_ms", ws, reads, 99, nReads))
	res.add(tailMetric("lat_p999_ms", ws, reads, 99.9, nReads))
	res.add(newMetric("commit_rps", "commits/s", perWindow(commitWS, func(w *window) float64 { return rate(w.commitOK, w.commitDur) }), nCommits))
	res.add(newMetric("commit_lat_p50_ms", "ms", perWindow(commitWS, pct(commits, 50)), nCommits))
	res.add(tailMetric("commit_lat_p75_ms", commitWS, commits, 75, nCommits))
	res.add(tailMetric("commit_lat_p90_ms", commitWS, commits, 90, nCommits))
	res.add(tailMetric("commit_lat_p99_ms", commitWS, commits, 99, nCommits))
	res.add(newMetric("server_cpu_ms_per_req", "ms", perWindow(ws, func(w *window) float64 {
		if done := w.readOK + w.commitOK; done > 0 {
			return w.cpuMS / float64(done)
		}
		return 0
	}), nReads+nCommits))
	if nLate > 0 {
		late := newMetric("gen_late_p99_ms", "ms", perWindow(ws, pct(func(w *window) []float64 { return w.lateMS }, 99)), nLate)
		res.add(late)
		if late.Value > maxGenLateMS {
			res.warn("the load generator ran late: gen_late_p99_ms %.3f exceeds %.1f ms, so the offered load depended on how busy this box was", late.Value, maxGenLateMS)
		}
		res.add(newMetric("conn_wait_p99_ms", "ms", perWindow(ws, pct(func(w *window) []float64 { return w.connWaitMS }, 99)), nReads+nCommits-nLate))
	}
	// The percentile the pooled read sample actually supports.
	res.add(metric{Name: "lat_highest_supported_percentile", Unit: "percentile",
		Value: highestSupported(nReads), Samples: nReads})
}
