package tfmcc

import (
	"repro/internal/feedback"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// cohortState is the analytic twin a probe Receiver carries when it
// stands in for a whole cohort. It is owned by the CohortReceiver wrapper
// and referenced from the probe, so the cohort-only deltas in the
// receiver's packet path (the min-of-N feedback draw, the worst-member
// loss inflation, the per-round expected-feedback accrual) all gate on a
// single nil check and the explicit-receiver path stays untouched.
type cohortState struct {
	size   int
	spread float64 // worst-member loss inflation per log2(size); 0 = homogeneous

	// expectedReports accumulates the analytic expected number of
	// feedback messages per round E[M] (Fuhrmann & Widmer, the Figure 4
	// quantity) over the rounds in which the cohort was report-eligible.
	// Purely observational: the convergence harness compares it against
	// the reports-per-round a population of explicit receivers measures.
	expectedReports float64
	rounds          int64

	// E[M] quadrature cache: the integral is recomputed only when the
	// round duration or suppression latency has moved by more than 1%
	// since the cached evaluation (both drift slowly in steady state).
	lastT  sim.Time
	lastD  sim.Time
	lastEM float64
}

// CohortReceiver models Members homogeneous receivers behind one access
// point with a single probe endpoint. The probe runs the full receiver
// pipeline — loss-event estimation, RTT measurement via echoes, feedback
// rounds — on the real packet stream, and the cohort's aggregate
// behaviour is layered on analytically:
//
//   - The cohort's feedback timer is the minimum of Members independent
//     draws from the paper's biased exponential suppression distribution.
//     Delay is monotone in its uniform variate, so one draw transformed
//     by u -> 1-(1-u)^(1/N) (the minimum-of-N-uniforms map) yields the
//     exact distribution while consuming a single value from the run RNG
//     — runs stay deterministic and worker-count independent.
//   - The minimum-rate member is the cohort's CLR candidate: its loss
//     event rate is the probe's measurement inflated by the declared loss
//     spread, and that worst-member rate is what CalcRate computes and
//     reports carry.
//   - Each eligible round accrues the analytic expected feedback load
//     E[M] for Members same-value receivers, for comparison against
//     measured explicit-receiver feedback (the Figure 4 trajectory).
//
// Memory is O(1) in Members: one probe receiver (~8 KB of receive
// window) regardless of cohort size, which is what lets a Spec declare a
// million receivers and run.
//
// A cohort twin is only valid for members that genuinely share the
// probe's path characteristics (same access site, hence same RTT and
// loss process). Heterogeneous populations must be split into one cohort
// per access site.
type CohortReceiver struct {
	*Receiver
	st cohortState
}

// cohortArenaKey pools cohort wrappers on reuse-enabled networks (the
// probe inside pools separately under receiverArenaKey via NewReceiver).
const cohortArenaKey = "tfmcc.CohortReceiver"

// NewCohortReceiver creates a cohort of size members whose probe joins
// the group on node. The probe reports as ReceiverID id — the cohort's
// worst member — and the cohort occupies IDs [id, id+size). On a
// reuse-enabled network the wrapper and its probe are recycled from the
// arena, bit-for-bit equivalent to a fresh build.
func NewCohortReceiver(id ReceiverID, net *simnet.Network, node simnet.NodeID, port simnet.Port,
	sender simnet.Addr, group simnet.GroupID, cfg Config, rng *sim.Rand, size int) *CohortReceiver {
	if size < 1 {
		size = 1
	}
	c := sim.Pooled(net.Arena(), cohortArenaKey,
		func() *CohortReceiver { return new(CohortReceiver) },
		func(c *CohortReceiver) {})
	c.Receiver = NewReceiver(id, net, node, port, sender, group, cfg, rng)
	c.st = cohortState{size: size}
	c.Receiver.cohort = &c.st
	return c
}

// Members returns the cohort size.
func (c *CohortReceiver) Members() int { return c.st.size }

// SetLossSpread declares the cohort's loss heterogeneity: the worst
// member's loss event rate is the probe's measurement inflated by
// (1 + spread·log2(size)), capped at 1. Zero (the default) models a
// homogeneous cohort whose members all see the probe's loss process.
func (c *CohortReceiver) SetLossSpread(spread float64) {
	if spread < 0 {
		spread = 0
	}
	c.st.spread = spread
}

// ExpectedReportsPerRound returns the mean analytic feedback load E[M]
// over the rounds in which the cohort was eligible to report, and how
// many such rounds accrued. This is the cohort-side value the
// convergence harness holds against measured explicit-receiver feedback.
func (c *CohortReceiver) ExpectedReportsPerRound() (float64, int64) {
	if c.st.rounds == 0 {
		return 0, 0
	}
	return c.st.expectedReports / float64(c.st.rounds), c.st.rounds
}

// Stats returns the cohort-level counter snapshot: per-member counters
// scaled to the membership, wire-level counters endpoint-true (see
// ReceiverStats).
func (c *CohortReceiver) Stats() ReceiverStats {
	s := c.Receiver.Stats()
	n := int64(c.st.size)
	s.Losses *= n
	s.LossEvents *= n
	s.PacketsRecv *= n
	s.StaleDiscards *= n
	return s
}

// accrueExpectedFeedback records one eligible round's analytic expected
// feedback load for a cohort of n members holding the same feedback
// value, with suppression latency d (one report-echo loop, the probe's
// RTT) and suppression interval T'.
func (st *cohortState) accrueExpectedFeedback(cfg feedback.Config, d sim.Time) {
	if st.lastEM == 0 || !withinOnePct(cfg.T, st.lastT) || !withinOnePct(d, st.lastD) {
		st.lastEM = feedback.ExpectedResponses(st.size, cfg.N, d, cfg.T)
		st.lastT, st.lastD = cfg.T, d
	}
	st.expectedReports += st.lastEM
	st.rounds++
}

func withinOnePct(a, b sim.Time) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d) <= 0.01*float64(b)
}
