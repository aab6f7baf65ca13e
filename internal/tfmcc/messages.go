package tfmcc

import "repro/internal/sim"

// Packet recycling classes (see simnet.Network.AllocPacketClass). Data
// and reports are both steady streams that interleave, so each keeps its
// own free list: a recycled packet's header box then always matches the
// header about to be written, and neither path allocates.
const (
	classData   = 0
	classReport = 5
)

// Data is the header of a multicast data packet. In a wire implementation
// these fields fit in a few dozen bytes; here they ride as a typed
// payload while Packet.Size models the on-the-wire cost.
type Data struct {
	Seq      int64
	SendTime sim.Time // sender clock at transmission
	Rate     float64  // current sending rate X_send, bytes/s
	Round    int      // feedback round number
	RoundT   sim.Time // feedback delay T for this round
	MaxRTT   sim.Time // sender's view of the maximum receiver RTT

	Slowstart bool

	// CLR designation.
	CLR ReceiverID // current limiting receiver, noReceiver if none

	// Feedback echo for RTT measurement (one receiver per packet).
	EchoRcvr  ReceiverID
	EchoTS    sim.Time // the echoed receiver report timestamp
	EchoDelay sim.Time // sender-side hold time between receipt and echo

	// Suppression echo: lowest feedback value heard this round.
	SuppressRate float64 // +Inf when no feedback received yet
	SuppressLoss bool    // the suppressing report had experienced loss
}

// Report is a unicast receiver report.
type Report struct {
	From      ReceiverID
	Timestamp sim.Time // receiver clock at send (echoed back for RTT)
	EchoTS    sim.Time // SendTime of the most recent data packet
	EchoDelay sim.Time // receiver-side hold between data receipt and send

	Rate     float64 // X_calc (or receive rate during slowstart), bytes/s
	RecvRate float64 // measured receive rate, bytes/s
	HasRTT   bool
	RTT      sim.Time // receiver's current RTT estimate
	LossRate float64  // loss event rate p (0 when no loss yet)
	HasLoss  bool     // receiver has experienced at least one loss event
	Round    int
	Leave    bool // receiver is leaving the session
}
