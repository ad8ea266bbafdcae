package replica

import "xtq/internal/obs"

// Replication instruments on the process-wide obs registry. The lag
// gauges mirror Stats.BehindBytes/BehindRecords — including the -1
// "unknown" reading, so dashboards can tell "caught up" from "not yet
// comparable".
var (
	mBehindBytes = obs.Default.Gauge("xtq_replica_behind_bytes",
		"Byte lag behind the primary's WAL tail (-1 before the first fetch).")
	mBehindRecords = obs.Default.Gauge("xtq_replica_behind_records",
		"Primary commits not yet applied here (-1 until first full catch-up).")
	mConnected = obs.Default.Gauge("xtq_replica_connected",
		"1 while the last feed request succeeded, 0 while disconnected.")
	mRebootstraps = obs.Default.Counter("xtq_replica_rebootstraps_total",
		"Re-bootstraps from the primary's checkpoint after compaction outran us.")
	mAppliedRecords = obs.Default.Counter("xtq_replica_applied_records_total",
		"WAL records fetched, verified and applied to the local store.")
	mLongpollWakeups = obs.Default.Counter("xtq_walfeed_longpoll_wakeups_total",
		"Feed long-polls woken by a new WAL append (primary side).")
)
