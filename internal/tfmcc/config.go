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
	"fmt"
	"math"

	"repro/internal/feedback"
	"repro/internal/rtt"
	"repro/internal/sim"
	"repro/internal/tcpmodel"
)

// Config collects every tunable of the protocol, defaulting to the values
// used in the paper.
type Config struct {
	PacketSize int // data packet size in bytes (1000)
	ReportSize int // feedback report size in bytes (40)

	Model tcpmodel.Params // TCP response function
	RTT   rtt.Config      // RTT estimator constants

	// Feedback suppression.
	FeedbackC     float64             // T = C · RTT_max (4; usable 3..6)
	FeedbackN     float64             // receiver-set bound N (10000)
	FeedbackDelta float64             // offset fraction delta (0.25)
	FeedbackEps   float64             // cancellation threshold ε (0.1)
	FeedbackBias  feedback.BiasMethod // timer bias (modified offset)
	FeedbackG     int                 // low-rate implosion guard g (3)

	NumLossIntervals int // loss history depth (8)

	InitialRate     float64 // sender start rate, bytes/s (2 packets/s)
	MinRate         float64 // rate floor, bytes/s (one packet per 8s)
	MaxRate         float64 // rate ceiling, bytes/s (0 = unlimited)
	SlowstartFactor float64 // Y: target = Y · min receive rate (2)

	CLRTimeoutRounds int  // CLR declared dead after this many silent rounds (10)
	StorePrevCLR     bool // Appendix C: remember the previous CLR
	PrevCLRTimeout   sim.Time

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

// DefaultConfig returns the paper's parameter set.
func DefaultConfig() Config {
	return Config{
		PacketSize:       1000,
		ReportSize:       40,
		Model:            tcpmodel.Default(),
		RTT:              rtt.DefaultConfig(),
		FeedbackC:        4,
		FeedbackN:        10000,
		FeedbackDelta:    0.25,
		FeedbackEps:      0.1,
		FeedbackBias:     feedback.BiasModifiedOffset,
		FeedbackG:        3,
		NumLossIntervals: 8,
		InitialRate:      2000, // 2 packets/s
		MinRate:          125,  // 1 packet per 8 s
		SlowstartFactor:  2,
		CLRTimeoutRounds: 10,
		PrevCLRTimeout:   2 * sim.Second,
		HalveOnSilence:   false,
	}
}

// Validate rejects parameter sets that cannot drive a session — the ones
// that arrive in spec documents from outside the program and would
// otherwise wedge a run (a zero packet size never advances the send
// clock) or poison it with NaN rates. It names the first offending field.
func (c Config) Validate() error {
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) } // false for NaN
	rate := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
	switch {
	case c.PacketSize < 1:
		return fmt.Errorf("tfmcc: PacketSize %d must be at least 1", c.PacketSize)
	case c.ReportSize < 1:
		return fmt.Errorf("tfmcc: ReportSize %d must be at least 1", c.ReportSize)
	case !positive(c.FeedbackC):
		return fmt.Errorf("tfmcc: FeedbackC %v must be finite and positive", c.FeedbackC)
	case !positive(c.FeedbackN):
		return fmt.Errorf("tfmcc: FeedbackN %v must be finite and positive", c.FeedbackN)
	case !positive(c.SlowstartFactor):
		return fmt.Errorf("tfmcc: SlowstartFactor %v must be finite and positive", c.SlowstartFactor)
	case c.NumLossIntervals < 1:
		return fmt.Errorf("tfmcc: NumLossIntervals %d must be at least 1", c.NumLossIntervals)
	case !rate(c.InitialRate):
		return fmt.Errorf("tfmcc: InitialRate %v must be finite and not negative", c.InitialRate)
	case !rate(c.MinRate):
		return fmt.Errorf("tfmcc: MinRate %v must be finite and not negative", c.MinRate)
	case !(c.MaxRate == 0 || c.MaxRate >= c.MinRate):
		return fmt.Errorf("tfmcc: MaxRate %v must be 0 (unlimited) or at least MinRate %v", c.MaxRate, c.MinRate)
	case c.CLRTimeoutRounds < 1:
		return fmt.Errorf("tfmcc: CLRTimeoutRounds %d must be at least 1", c.CLRTimeoutRounds)
	}
	return nil
}

// feedbackConfig assembles the per-round feedback.Config for the current
// maximum RTT and sending rate (applying the low-rate guard).
func (c Config) feedbackConfig(maxRTT sim.Time, rate float64) feedback.Config {
	base := maxRTT.Scale(c.FeedbackC)
	t := feedback.GuardedT(base, c.FeedbackG, c.PacketSize, rate)
	return feedback.Config{
		T:     t,
		N:     c.FeedbackN,
		Delta: c.FeedbackDelta,
		Eps:   c.FeedbackEps,
		Bias:  c.FeedbackBias,
	}
}

// ReceiverID identifies a receiver within a session.
type ReceiverID int

// noReceiver marks "no CLR/echo slot".
const noReceiver = ReceiverID(-1)
