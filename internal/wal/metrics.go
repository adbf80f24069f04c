package wal

import (
	"time"

	"nntstream/internal/obs"
)

// Metrics bundles the durability instruments. All methods are nil-receiver
// safe so the log and the durable engine can record unconditionally.
type Metrics struct {
	// AppendSeconds is the latency of writing one record, with its
	// writeback hint under SyncAlways (the commit's closing fsync excluded;
	// see FsyncSeconds). Its _count is the records appended.
	AppendSeconds *obs.Histogram
	// FsyncSeconds is the latency of one fsync of the log file. Its _count
	// is the fsync calls.
	FsyncSeconds *obs.Histogram
	// BytesAppended counts framed bytes written to the log.
	BytesAppended *obs.Counter
	// Recoveries counts engine boots that opened an existing data
	// directory.
	Recoveries *obs.Counter
	// RecordsReplayed counts records replayed from the log during recovery
	// (including records skipped because a checkpoint already covered them).
	RecordsReplayed *obs.Counter
	// TornTruncations counts recoveries that discarded a torn or corrupt
	// log tail.
	TornTruncations *obs.Counter
	// TornBytes counts bytes discarded by torn-tail truncation.
	TornBytes *obs.Counter
	// CheckpointSeconds is the latency of writing one checkpoint (snapshot
	// encode + fsync + rename + log reset). Its _count is the checkpoints
	// successfully written.
	CheckpointSeconds *obs.Histogram
	// CheckpointFailures counts checkpoint attempts that failed (the log
	// keeps growing; state is still recoverable from the previous
	// checkpoint plus the longer log).
	CheckpointFailures *obs.Counter
}

// NewMetrics registers the WAL instruments in r under the nntstream_wal_
// prefix. Registering twice against the same registry returns instruments
// backed by the same state.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		AppendSeconds: r.Histogram("nntstream_wal_append_seconds",
			"Latency of writing one WAL record and, under fsync always, starting its writeback, excluding the commit's closing fsync.", nil),
		FsyncSeconds: r.Histogram("nntstream_wal_fsync_seconds",
			"Latency of one fsync of the WAL file.", nil),
		BytesAppended: r.Counter("nntstream_wal_bytes_appended_total",
			"Framed bytes appended to the WAL."),
		Recoveries: r.Counter("nntstream_wal_recoveries_total",
			"Engine boots that recovered from an existing data directory."),
		RecordsReplayed: r.Counter("nntstream_wal_recovery_records_replayed_total",
			"WAL records read back during recovery."),
		TornTruncations: r.Counter("nntstream_wal_recovery_torn_truncations_total",
			"Recoveries that discarded a torn or corrupt WAL tail."),
		TornBytes: r.Counter("nntstream_wal_recovery_torn_bytes_total",
			"Bytes discarded by torn-tail truncation."),
		CheckpointSeconds: r.Histogram("nntstream_wal_checkpoint_seconds",
			"Latency of writing one checkpoint.", nil),
		CheckpointFailures: r.Counter("nntstream_wal_checkpoint_failures_total",
			"Checkpoint attempts that failed."),
	}
}

func (m *Metrics) observeAppend(d time.Duration, bytes int) {
	if m == nil {
		return
	}
	m.AppendSeconds.Observe(d.Seconds())
	m.BytesAppended.Add(int64(bytes))
}

func (m *Metrics) observeFsync(d time.Duration) {
	if m == nil {
		return
	}
	m.FsyncSeconds.Observe(d.Seconds())
}

func (m *Metrics) observeRecovery(res scanResult, tornBytes int64) {
	if m == nil {
		return
	}
	m.RecordsReplayed.Add(int64(res.records))
	if tornBytes > 0 {
		m.TornTruncations.Inc()
		m.TornBytes.Add(tornBytes)
	}
}

// ObserveCheckpoint records one checkpoint attempt; it is exported for the
// engine layer that owns checkpointing.
func (m *Metrics) ObserveCheckpoint(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.CheckpointFailures.Inc()
		return
	}
	m.CheckpointSeconds.Observe(d.Seconds())
}

// ObserveRecoveryStart counts one boot over an existing data directory; it is
// exported for the engine layer that drives recovery.
func (m *Metrics) ObserveRecoveryStart() {
	if m == nil {
		return
	}
	m.Recoveries.Inc()
}
