package tfmcc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Session wires one TFMCC sender and its receivers onto an existing
// network topology, sharing one port. Receivers holds the session's
// receivers in join order, and Receivers[i] reports as ReceiverID(i).
type Session struct {
	Net       *simnet.Network
	Group     simnet.GroupID
	Port      simnet.Port
	Sender    *Sender
	Receivers []*Receiver

	rng *sim.Rand
}

// NewSession creates a session with the sender on senderNode. On a
// rewound network the session (receiver slice included) and its sender,
// via NewSender, are recycled from the arena instead of allocated.
func NewSession(net *simnet.Network, senderNode simnet.NodeID, group simnet.GroupID,
	port simnet.Port, cfg Config, rng *sim.Rand) *Session {
	s := sim.Pooled[Session](net.Arena())
	*s = Session{
		Net:       net,
		Group:     group,
		Port:      port,
		Sender:    NewSender(net, senderNode, port, group, cfg),
		Receivers: s.Receivers[:0], // a recycled session keeps the backing array
		rng:       rng,
	}
	return s
}

// AddReceiver joins a receiver on the given node as the session's next
// ReceiverID.
func (s *Session) AddReceiver(node simnet.NodeID) *Receiver {
	r := newReceiver(ReceiverID(len(s.Receivers)), s.Net, node, s.Port, s.Sender.addr, s.Group, s.rng)
	s.Receivers = append(s.Receivers, r)
	return r
}

// Start begins the transfer.
func (s *Session) Start() { s.Sender.Start() }

// CLRInvariant checks that the session's CLR is a plausible live
// receiver and returns a description of the first violation, or "" when
// the invariant holds. An out-of-range CLR index means the sender
// adopted a report from a receiver the session never created. Liveness
// is judged in the paper's own unit, completed feedback rounds: a CLR
// silent for well past CLRTimeoutRounds of them means the
// failure-detection path is wedged. (Wall-clock silence against the
// instantaneous round duration would false-positive whenever the
// low-rate guard stretches a round to tens of seconds and the rate —
// and with it roundT — recovers mid-silence.) A round that has overrun
// its own duration by a wide margin means the round timer itself is
// wedged, which would also freeze the timeout path; that is checked in
// wall-clock terms relative to the round in progress.
func (s *Session) CLRInvariant() string {
	snd := s.Sender
	if snd == nil || !snd.Running() {
		return ""
	}
	if roundT := snd.RoundT(); roundT > 0 && snd.RoundStart() > 0 {
		if over := snd.sch.Now() - snd.RoundStart(); over > roundT.Scale(3) {
			return fmt.Sprintf("feedback round open for %v (round duration %v): round timer wedged", over, roundT)
		}
	}
	clr := snd.CLR()
	if clr == noReceiver {
		return ""
	}
	if int(clr) < 0 || int(clr) >= len(s.Receivers) {
		return fmt.Sprintf("CLR id %d out of range (session has %d receivers)", clr, len(s.Receivers))
	}
	if silent := snd.CLRSilentRounds(); silent > CLRTimeoutRounds+2 {
		return fmt.Sprintf("CLR %d silent for %d rounds (> timeout of %d rounds) without re-election", clr, silent, CLRTimeoutRounds)
	}
	return ""
}

// ValidRTTCount returns how many receivers have a real RTT measurement
// (the Figure 12 metric).
func (s *Session) ValidRTTCount() int {
	n := 0
	for _, r := range s.Receivers {
		if r.HasValidRTT() {
			n++
		}
	}
	return n
}
