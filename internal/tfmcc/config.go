// Package tfmcc implements TCP-Friendly Multicast Congestion Control
// (Widmer & Handley, SIGCOMM 2001): a single-rate, equation-based
// multicast congestion control protocol. The sender transmits at a rate
// acceptable to the current limiting receiver (CLR); receivers measure
// their own loss event rate and RTT, compute a TCP-friendly rate from the
// Padhye model, and report it through biased exponential feedback timers
// that avoid implosion while keeping the lowest-rate report likely to get
// through.
package tfmcc

import (
	"repro/internal/feedback"
	"repro/internal/lossrate"
	"repro/internal/rtt"
	"repro/internal/sim"
	"repro/internal/tcpmodel"
)

// The paper's parameter set. Every session runs it; an experiment on one
// parameter is an edit to its constant here.
const (
	PacketSize int = 1000 // data packet size in bytes
	ReportSize int = 40   // feedback report size in bytes

	// Feedback suppression (section 2.5).
	FeedbackC     float64 = 4     // T = C · RTT_max (usable 3..6)
	FeedbackN     float64 = 10000 // receiver-set bound N
	FeedbackDelta float64 = 0.25  // offset fraction δ
	FeedbackEps   float64 = 0.1   // cancellation threshold ε
	FeedbackBias          = feedback.BiasModifiedOffset
	FeedbackG     int     = 3 // low-rate implosion guard g

	NumLossIntervals int = 8 // loss history depth n

	InitialRate     float64 = 2000 // sender start rate, bytes/s (2 packets/s)
	MinRate         float64 = 125  // rate floor, bytes/s (one packet per 8 s)
	SlowstartFactor float64 = 2    // Y: target = Y · min receive rate

	CLRTimeoutRounds int = 10 // CLR declared dead after this many silent rounds
)

// initialRTT is the conservative RTT used before the first measurement
// (section 2.4): the value the receivers' estimators report until then.
const initialRTT = rtt.InitialRTT

// rttWindowRounds is how many consecutive rounds with a valid RTT from
// every reporter the sender waits for before it leaves initialRTT; from
// then on its maximum RTT is the largest round RTT of that many rounds.
const rttWindowRounds = 4

// Values derived from the constants, shared by every session and never
// written: the TCP response function and the loss-interval weights.
var (
	model       = tcpmodel.Default()
	lossWeights = lossrate.Weights(NumLossIntervals)
)

// Config holds the one protocol choice a session makes.
type Config struct {
	// HalveOnSilence applies the no-feedback failure mode (section 5):
	// once the CLR has timed out or left and no surviving receiver could
	// be elected, the sender halves its rate on every further feedback
	// round that produces no reports at all, down to MinRate. A live CLR
	// (or any report in the round) disarms it, so tolerated report-path
	// loss is unaffected. Off by default: suppression can legitimately
	// leave the sender CLR-less for a round during churn, and the figure
	// scenarios predate the halving; the fault presets turn it on.
	HalveOnSilence bool
}

// DefaultConfig returns the configuration the paper's figures run.
func DefaultConfig() Config { return Config{} }

// roundDuration returns the feedback round duration T = C · RTT_max at
// the given sending rate, stretched by the low-rate guard.
func roundDuration(maxRTT sim.Time, rate float64) sim.Time {
	return feedback.GuardedT(maxRTT.Scale(FeedbackC), FeedbackG, PacketSize, rate)
}

// feedbackConfig returns the suppression parameters of a round of
// duration t.
func feedbackConfig(t sim.Time) feedback.Config {
	return feedback.Config{T: t, N: FeedbackN, Delta: FeedbackDelta, Eps: FeedbackEps, Bias: FeedbackBias}
}

// ReceiverID identifies a receiver within a session.
type ReceiverID int

// noReceiver marks "no CLR/echo slot".
const noReceiver = ReceiverID(-1)
