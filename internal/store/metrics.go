package store

import (
	"time"

	"xtq/internal/obs"
)

// Store instruments on the process-wide obs registry. Commit latency is
// labeled by commit kind (put, update, remove); the copy counters are
// the running copy-on-write cost of the whole store — the same numbers
// each Commit value reports per write, summed for dashboards.
var (
	mCommitSeconds = obs.Default.HistogramVec("xtq_store_commit_seconds",
		"Commit latency by kind (put, update, remove), including evaluation and WAL append.", "kind")
	mCopiedNodes = obs.Default.Counter("xtq_store_commit_copied_nodes_total",
		"Nodes copied by commits (path-copy spines plus inserted content).")
	mCopiedBytes = obs.Default.Counter("xtq_store_commit_copied_bytes_total",
		"Heap bytes retained by the nodes, attribute and child slices commits copied.")
	// The column core is gone and nothing increments this family; it
	// stays registered (reading 0) because the wire benchmark's scraper
	// still asks for it by name.
	_ = obs.Default.Counter("xtq_store_commit_copied_chunks_total",
		"Retired with the column core: always 0.")
	mCASRetries = obs.Default.Counter("xtq_store_cas_retries_total",
		"Optimistic commits that lost the publishing CAS and re-evaluated.")
	mCheckpointSeconds = obs.Default.Histogram("xtq_store_checkpoint_seconds",
		"Checkpoint duration (capture, serialize, publish, GC).")
)

// observeCommit records one successful commit on the registry.
func observeCommit(kind string, elapsed time.Duration, com Commit) {
	mCommitSeconds.With(kind).Observe(elapsed)
	if com.CopiedNodes > 0 {
		mCopiedNodes.Add(uint64(com.CopiedNodes))
	}
	if com.CopiedBytes > 0 {
		mCopiedBytes.Add(uint64(com.CopiedBytes))
	}
}
