package tfmcc

import (
	"repro/internal/feedback"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// cohortState is the analytic twin a probe Receiver carries when it
// stands in for a whole cohort. The cohort-only deltas in the receiver's
// packet path (the min-of-N feedback draw, the worst-member loss
// inflation, the per-round expected-feedback accrual) all gate on the
// probe's single nil check, so the explicit-receiver path stays
// untouched.
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

// NewCohortReceiver creates a cohort of size homogeneous receivers behind
// one access point, modelled by a single probe endpoint that joins the
// group on node. The probe reports as ReceiverID id — the cohort's worst
// member — and the cohort occupies IDs [id, id+size). The probe is a
// Receiver carrying cohort state: it runs the full receiver pipeline —
// loss-event estimation, RTT measurement via echoes, feedback rounds —
// on the real packet stream, and the cohort's aggregate behaviour is
// layered on analytically:
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
// per access site. On a reuse-enabled network the probe and its cohort
// state are recycled from the arena, each under its own key.
func NewCohortReceiver(id ReceiverID, net *simnet.Network, node simnet.NodeID, port simnet.Port,
	sender simnet.Addr, group simnet.GroupID, _ Config, rng *sim.Rand, size int) *Receiver {
	return newCohortReceiver(id, net, node, port, sender, group, rng, size)
}

func newCohortReceiver(id ReceiverID, net *simnet.Network, node simnet.NodeID, port simnet.Port,
	sender simnet.Addr, group simnet.GroupID, rng *sim.Rand, size int) *Receiver {
	st := sim.Pooled[cohortState](net.Arena(), cohortArenaKey)
	*st = cohortState{size: max(size, 1)}
	r := newReceiver(id, net, node, port, sender, group, rng)
	r.cohort = st
	return r
}

// cohortArenaKey pools cohort state on reuse-enabled networks (the probe
// pools separately under receiverArenaKey via newReceiver).
const cohortArenaKey = "tfmcc.cohortState"

// SetLossSpread declares a cohort's loss heterogeneity: the worst
// member's loss event rate is the probe's measurement inflated by
// (1 + spread·log2(size)), capped at 1. Zero (the default) models a
// homogeneous cohort whose members all see the probe's loss process. It
// does nothing on an explicit receiver.
func (r *Receiver) SetLossSpread(spread float64) {
	if r.cohort != nil {
		r.cohort.spread = max(spread, 0)
	}
}

// ExpectedReportsPerRound returns the mean analytic feedback load E[M]
// over the rounds in which the cohort was eligible to report, and how
// many such rounds accrued; (0, 0) for an explicit receiver. This is the
// cohort-side value the convergence harness holds against measured
// explicit-receiver feedback.
func (r *Receiver) ExpectedReportsPerRound() (float64, int64) {
	c := r.cohort
	if c == nil || c.rounds == 0 {
		return 0, 0
	}
	return c.expectedReports / float64(c.rounds), c.rounds
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
