package xtq

import (
	"xtq/internal/core"
	"xtq/internal/obs"
)

// Engine instruments on the process-wide obs registry. Cache counters
// are labeled by which of the engine's three LRUs they describe
// ("query", "plan", "verdict"); evaluation latency is labeled by the
// method actually run so regressions in one strategy don't hide in an
// aggregate.
var (
	mCacheHits = obs.Default.CounterVec("xtq_engine_cache_hits_total",
		"Engine LRU cache hits by cache (query, plan, verdict).", "cache")
	mCacheMisses = obs.Default.CounterVec("xtq_engine_cache_misses_total",
		"Engine LRU cache misses by cache (query, plan, verdict).", "cache")
	mCompileSeconds = obs.Default.Histogram("xtq_engine_compile_seconds",
		"Parse+compile latency of cache-missing Prepare calls.")
	mEvalSeconds = obs.Default.HistogramVec("xtq_engine_eval_seconds",
		"In-memory evaluation latency by method.", "method")
)

// mQueryAnswers counts the transform answers EvalTo wrote, by how they
// were produced; the three series are resolved once.
var mQueryAnswers = func() map[core.Answer]*obs.Counter {
	v := obs.Default.CounterVec("xtq_query_answers_total",
		"Transform answers written by the topdown walk, by how they were produced (walk, record, replay).", "source")
	m := make(map[core.Answer]*obs.Counter)
	for _, a := range []core.Answer{core.AnswerWalk, core.AnswerRecord, core.AnswerReplay} {
		m[a] = v.With(string(a))
	}
	return m
}()
