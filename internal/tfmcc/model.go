package tfmcc

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// ReceiverModel is the session-facing receiver API: everything Session,
// the scenario executor and the hypothesis judge need from a receiver —
// membership and departure, feedback-relevant state (RTT validity, loss
// event rate, calculated rate, CLR designation) and stats sampling —
// without committing callers to a concrete representation. Two
// implementations exist: Receiver models one endpoint explicitly, and
// CohortReceiver models N homogeneous receivers behind one endpoint
// analytically, so the same Spec vocabulary scales from a handful of
// explicit receivers to a million-member cohort in bounded memory.
type ReceiverModel interface {
	// ID returns the model's base receiver identifier. A cohort occupies
	// the contiguous ID range [ID, ID+Members()).
	ID() ReceiverID
	// Members returns how many receivers the model represents (1 for an
	// explicit Receiver).
	Members() int

	// Leave announces departure to the sender and leaves the group;
	// Crash leaves silently (the CLR timeout must discover it).
	Leave()
	Crash()
	Left() bool
	Crashed() bool
	LeftAt() sim.Time

	// Feedback-relevant state, as reported by the model's CLR candidate
	// (for a cohort: its minimum-rate member).
	HasValidRTT() bool
	RTT() sim.Time
	LossEventRate() float64
	CalcRate() float64
	IsCLR() bool
	SeedClockSync(oneWay sim.Time)

	// Instrumentation and stats sampling.
	SetMeter(m *stats.Meter)
	Stats() ReceiverStats
}

// ReceiverStats is the model-level counter snapshot Stats returns. For an
// explicit Receiver the values are the endpoint's own counters; for a
// cohort the per-member counters (PacketsRecv, Losses, LossEvents,
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

// Compile-time interface checks.
var (
	_ ReceiverModel = (*Receiver)(nil)
	_ ReceiverModel = (*CohortReceiver)(nil)
)
