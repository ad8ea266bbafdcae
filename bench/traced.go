package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"xtq"
)

// endToEndNames and perLayerNames are the metrics BENCHMARK.json
// declares, in its order; a unit test keeps the two in step.
var endToEndNames = []string{
	"throughput_rps", "lat_p50_ms", "lat_p75_ms",
	"commit_rps", "commit_lat_p50_ms", "commit_lat_p75_ms",
	"server_cpu_ms_per_req", "server_rss_mb", "setup_s",
}

// spanMetrics maps a per-layer metric to the replay span whose median
// duration (µs) it reports.
var spanMetrics = []struct{ metric, span string }{
	{"core.parse_query_us", "core.parse_query"},
	{"core.compile_us", "core.compile"},
	{"engine.prepare_hit_us", "engine.prepare_hit"},
	{"plan.choose_us", "plan.choose"},
	{"core.eval_us", "core.eval"},
	{"sax.emit_us", "sax.emit"},
	{"compose.prepare_us", "compose.prepare"},
	{"compose.eval_us", "compose.eval"},
	{"tree.freeze_us", "tree.freeze"},
	{"tree.writexml_us", "tree.writexml"},
	{"store.apply_us", "store.apply"},
	{"tree.pathcopy_us", "tree.pathcopy"},
	{"wal.append_us", "wal.append"},
	{"wal.fsync_us", "wal.fsync"},
	{"ivm.oncommit_us", "ivm.oncommit"},
	{"ivm.get_us", "ivm.get"},
}

var perLayerNames = func() []string {
	var names []string
	for _, m := range spanMetrics {
		names = append(names, m.metric)
	}
	return append(names,
		"sax.emit_mb_per_s", "sax.parse_mb_per_s",
		"core.eval_allocs", "core.nodes_visited", "core.eval_us_server", "compose.nodes_visited",
		"engine.query_cache_hit_ratio", "engine.view_cache_hit_ratio",
		"plan.decisions.topdown", "plan.decisions.other",
		"store.copied_bytes_per_commit", "store.copied_chunks_per_commit", "store.cas_retries",
		"wal.bytes_per_commit", "wal.fsyncs_per_commit",
		"ivm.maintained_share", "ivm.delta_share", "ivm.watch_delivery_ms", "replica.ship_ms",
		"xtqd.handler_p50_ms", "xtqd.transport_residual_ms", "xtqd.unaccounted_share",
		"trace.overhead_share",
	)
}()

// layerRow is one line of a workload's layer table.
type layerRow struct {
	layer  string
	selfUS float64
	share  float64 // of lat_p50_ms
	calls  int
}

// tracedRun produces the per-layer metrics from the two outside-in
// sources: (A) an in-process replay of a request sample with one span
// per layer call, and (B) the server's own telemetry — /metrics deltas
// around the run and ?explain=1 on 1 read in 50 of every second
// window. Untraced and traced windows alternate on the same server, so
// their throughput ratio is the tracing overhead.
func tracedRun(e *env, info workloadInfo, seed int64, sh runShape) (*runResult, error) {
	forReplay, err := info.build(seed)
	if err != nil {
		return nil, err
	}
	rep, err := replayInProcess(forReplay, e.scratch)
	if err != nil {
		return nil, fmt.Errorf("in-process replay of %s: %w", info.name, err)
	}
	tracePath := filepath.Join(e.outDir, "trace-"+info.name+".json")
	if err := writeSpans(tracePath, rep.spans); err != nil {
		return nil, err
	}

	r, err := info.build(seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(r)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: r.name, Seed: seed, Trace: 1, Correct: true, primary: r.primary,
		Load: r.describe() + "; spans in " + tracePath, WindowSeconds: sh.window.Seconds()}
	l, _, err := setUp(e, r, o)
	if err != nil {
		return nil, err
	}
	defer l.shutdown(e)
	if _, err := l.measure(r.phases, sh.warmup, false); err != nil {
		return nil, err
	}
	before, err := l.client.scrape()
	if err != nil {
		return nil, err
	}
	var plain, traced, all []*window
	for i := 0; i < sh.windows+sh.windows%2 || i < 2; i++ {
		w, err := l.measure(r.phases, sh.window, i%2 == 1)
		if err != nil {
			return nil, err
		}
		all = append(all, w)
		if w.died {
			res.problem("xtqd died during window %d:\n%s", i+1, l.srv.logs.String())
			res.finish(l, all)
			return res, nil
		}
		if i%2 == 1 {
			traced = append(traced, w)
		} else {
			plain = append(plain, w)
		}
	}
	if r.probe != nil {
		// One commit-probe window, so the store and WAL counters below
		// have commits to describe on the read-only workloads too.
		_, commits := sh.split(r)
		counted := *r.probe
		counted.count = commits * sh.windows
		w, err := l.measure([]phase{counted}, 0, false)
		if err != nil {
			return nil, err
		}
		all = append(all, w)
	}
	after, err := l.client.scrape()
	if err != nil {
		return nil, err
	}
	explains := l.explains()

	values := rep.values
	total, self, count := layerMedians(rep.spans)
	for _, m := range spanMetrics {
		values[m.metric] = total[m.span]
	}
	addServerTelemetry(values, after.delta(before), r.primary)

	var evalUS []float64
	for _, x := range explains {
		if x.kind == r.primary {
			evalUS = append(evalUS, float64(x.EvalNS)/1e3)
		}
	}
	values["core.eval_us_server"] = median(evalUS)

	tput := func(ws []*window) float64 {
		return median(perWindow(ws, func(w *window) float64 { return rate(w.readOK, w.readDur) }))
	}
	if base := tput(plain); base > 0 {
		values["trace.overhead_share"] = 1 - tput(traced)/base
	}
	p50 := median(perWindow(plain, pct(func(w *window) []float64 { return w.readMS }, 50)))
	values["xtqd.transport_residual_ms"] = p50 - values["xtqd.handler_p50_ms"]

	// The layer table: the spans recorded directly under the primary
	// request kind's root span, by median self time.
	rootName := "request." + r.primary.String()
	accounted := 0.0
	for _, name := range childNames(rep.spans, rootName) {
		row := layerRow{layer: name, selfUS: self[name], calls: count[name]}
		if p50 > 0 {
			row.share = row.selfUS / 1e3 / p50
		}
		accounted += row.selfUS / 1e3
		res.layerTable = append(res.layerTable, row)
	}
	if p50 > 0 {
		values["xtqd.unaccounted_share"] = 1 - accounted/p50
	}
	res.add(metric{Name: "lat_p50_ms", Unit: "ms", Value: p50, Samples: len(plain)})

	if r.name == "update_commit" {
		watch, ship, err := commitProbes(l, r)
		if err != nil {
			res.problem("watch/replica probe: %v", err)
		}
		values["ivm.watch_delivery_ms"], values["replica.ship_ms"] = watch, ship
	}

	for _, name := range perLayerNames {
		res.add(metric{Name: name, Unit: layerUnit(name), Value: values[name], Samples: sampleCount(name, count, len(explains))})
	}
	res.finish(l, all)
	return res, nil
}

// childNames lists the distinct names of spans whose parent is a span
// named root, in first-seen order.
func childNames(spans []span, root string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == root && !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	return out
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us") || strings.HasSuffix(name, "_us_server"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.HasPrefix(name, "store.copied_bytes") || strings.HasPrefix(name, "wal.bytes"):
		return "bytes"
	default:
		return "count"
	}
}

func sampleCount(name string, spanCount map[string]int, explains int) int {
	for _, m := range spanMetrics {
		if m.metric == name {
			return spanCount[m.span]
		}
	}
	if name == "core.eval_us_server" {
		return explains
	}
	return 0
}

// addServerTelemetry derives per-layer metrics from the /metrics
// difference across the run.
func addServerTelemetry(values map[string]float64, d promPage, primary opKind) {
	values["engine.query_cache_hit_ratio"] = ratio(
		d.sum("xtq_engine_cache_hits_total", "cache=query"), d.sum("xtq_engine_cache_misses_total", "cache=query"))
	values["engine.view_cache_hit_ratio"] = ratio(
		d.sum("xtq_engine_cache_hits_total", "cache=plan"), d.sum("xtq_engine_cache_misses_total", "cache=plan"))
	topdown := d.sum("xtq_plan_decisions_total", "method=topdown")
	values["plan.decisions.topdown"] = topdown
	values["plan.decisions.other"] = d.sum("xtq_plan_decisions_total") - topdown

	if commits := d.sum("xtq_store_commit_seconds_count", "kind=update"); commits > 0 {
		values["store.copied_bytes_per_commit"] = d.sum("xtq_store_commit_copied_bytes_total") / commits
		values["store.copied_chunks_per_commit"] = d.sum("xtq_store_commit_copied_chunks_total") / commits
	}
	values["store.cas_retries"] = d.sum("xtq_store_cas_retries_total")
	if records := d.sum("xtq_wal_records_total"); records > 0 {
		values["wal.bytes_per_commit"] = d.sum("xtq_wal_appended_bytes_total") / records
		values["wal.fsyncs_per_commit"] = d.sum("xtq_wal_fsync_seconds_count") / records
	}
	values["ivm.maintained_share"] = ratio(
		d.sum("xtq_ivm_reads_total", "source=cache"), d.sum("xtq_ivm_reads_total", "source=recompute"))
	values["ivm.delta_share"] = ratio(
		d.sum("xtq_ivm_commits_total", "result=delta"), d.sum("xtq_ivm_commits_total", "result=full"))
	values["xtqd.handler_p50_ms"] = 1e3 * d.histQuantile("xtqd_http_request_seconds", 0.5, "route="+primary.route())
}

// commitProbes measures, on an otherwise idle server, how long after a
// commit's response its change event reaches an SSE /watch client
// (ivm.watch_delivery_ms) and its log record reaches an in-process
// follower of the spawned primary (replica.ship_ms). Both are medians
// over probeCommits sequential commits. They use two connections beyond
// the load's, which is why they run after the windows.
func commitProbes(l *loadRun, r *run) (watchMS, shipMS float64, err error) {
	const probeCommits = 40
	doc := r.docs[0].name
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.srv.url+docPath(doc)+"/watch", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	type arrival struct {
		version uint64
		at      time.Time
	}
	events := make(chan arrival, probeCommits) // sized to the sends: the reader never blocks on a slow prober
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		change := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				change = line == "event: change"
			case strings.HasPrefix(line, "id: ") && change:
				if v, err := strconv.ParseUint(line[4:], 10, 64); err == nil {
					select {
					case events <- arrival{v, time.Now()}:
					case <-ctx.Done():
						return
					}
				}
			}
		}
	}()

	fol, err := xtq.Follow(l.srv.url, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("following the primary: %w", err)
	}
	defer fol.Close()

	// The first source of the run is the note-pair writer.
	next := r.phases[0].actors[0]
	var watch, ship []float64
	for i := 0; i < probeCommits; i++ {
		up := next()
		res := l.senders[0].send(up)
		acked := time.Now()
		if !res.ok {
			return 0, 0, fmt.Errorf("probe commit: %s", res.err)
		}
		if err := fol.WaitMinVersion(ctx, doc, res.version); err != nil {
			return 0, 0, fmt.Errorf("follower waiting for version %d: %w", res.version, err)
		}
		shipped := time.Now()
		for ev := range events {
			if ev.version >= res.version {
				watch = append(watch, float64(ev.at.Sub(acked))/float64(time.Millisecond))
				break
			}
		}
		if i > 0 { // the first wait includes the follower's bootstrap
			ship = append(ship, float64(shipped.Sub(acked))/float64(time.Millisecond))
		}
	}
	return median(watch), median(ship), nil
}
