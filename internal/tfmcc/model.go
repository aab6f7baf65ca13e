package tfmcc

// ReceiverStats is the counter snapshot Receiver.Stats returns. For an
// explicit receiver the values are the endpoint's own counters; for a
// cohort probe the per-member counters (PacketsRecv, Losses, LossEvents,
// StaleDiscards) are scaled to the membership while the wire-level ones
// (ReportsSent, SuppressCancels) stay endpoint-true — the cohort really
// does emit only its probe's reports.
type ReceiverStats struct {
	ReportsSent     int64
	SuppressCancels int64
	Losses          int64
	LossEvents      int64
	PacketsRecv     int64
	StaleDiscards   int64
}
