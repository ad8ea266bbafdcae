package ivm

import (
	"context"

	"xtq/internal/obs"
	"xtq/internal/tree"
)

// Maintenance instruments on the process-wide obs registry. The commit
// counter is labeled by how the commit was absorbed — delta
// maintenance, full recomposition, or a provably-unaffected no-op bump
// — so the ratio the paper's incremental-maintenance argument rests on
// is a single PromQL expression. Unknown impact verdicts (maintained
// like affected) are counted separately: they overlap the delta/full
// outcomes rather than partition them.
var (
	mMaintained = obs.Default.CounterVec("xtq_ivm_commits_total",
		"View maintenance outcomes per (commit, view) pair.", "result")
	mUnknownVerdicts = obs.Default.Counter("xtq_ivm_unknown_verdicts_total",
		"Impact analyses that could not prove the view affected or unaffected.")
	mReads = obs.Default.CounterVec("xtq_ivm_reads_total",
		"Materialized-view reads by source (cache, delta, recompute).", "source")
	mImageBuilds = obs.Default.Counter("xtq_ivm_image_builds_total",
		"Serialized view-chain images built on the chain's second read from its cache entry (at most one per full materialization).")
	mImageBytes = obs.Default.Counter("xtq_ivm_image_bytes_total",
		"Bytes of the serialized view-chain images built.")
	mHubResyncs = obs.Default.Counter("xtq_ivm_hub_resyncs_total",
		"Change-feed subscribers whose buffer overflowed into a resync event.")
	mSubscribers = obs.Default.Gauge("xtq_ivm_subscribers",
		"Open change-feed subscriptions.")
)

// noteChainRead notes one read served from a cache entry whose nodes
// chain stamped (nil: none), building the chain's image on its second
// such read (tree.Index.ReadImage).
func noteChainRead(chain *tree.Index) {
	if chain == nil {
		return
	}
	if img, built := chain.ReadImage(); built {
		mImageBuilds.Inc()
		mImageBytes.Add(uint64(img.Len()))
	}
}

// noteRead records one served view read: the source-labeled counter,
// and — when the request carries a trace — the trace's view section,
// the one source the serving layer's X-Xtq-View-Stats header and
// EXPLAIN body both read.
func noteRead(ctx context.Context, st Stats) {
	mReads.With(st.Source).Inc()
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return
	}
	vt := &obs.ViewTrace{
		Doc: st.Doc, View: st.View, Version: st.Version,
		Source: st.Source, CacheHit: st.CacheHit,
		DeltaCommits: st.DeltaCommits, FullCommits: st.FullCommits,
		UnaffectedCommits: st.UnaffectedCommits, UnknownCommits: st.UnknownCommits,
		NodesVisited: st.NodesVisited, Materialized: st.Materialized,
		ReusedSubtrees: st.ReusedSubtrees,
	}
	for _, l := range st.Layers {
		vt.Layers = append(vt.Layers, obs.LayerTrace{
			NodesVisited: l.NodesVisited, Materialized: l.Materialized,
		})
	}
	tr.SetView(vt)
}
