package tfmcc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Session wires one TFMCC sender and its receivers onto an existing
// network topology, allocating receiver IDs and a shared port. Receivers
// holds the session's receivers in join order — explicit receivers and
// cohort probes alike; a cohort occupies one slot but Members() receiver
// IDs, so slot index and ReceiverID diverge once a cohort has joined.
type Session struct {
	Net       *simnet.Network
	Group     simnet.GroupID
	Port      simnet.Port
	Sender    *Sender
	Receivers []*Receiver

	// nextID is the first unallocated ReceiverID: each explicit receiver
	// advances it by one, each cohort by its membership.
	nextID ReceiverID

	rng *sim.Rand
}

// sessionArenaKey pools session shells (receiver slice included) on
// reuse-enabled networks.
const sessionArenaKey = "tfmcc.Session"

// NewSession creates a session with the sender on senderNode. On a
// reuse-enabled network the session (and its sender, via NewSender) is
// recycled from the arena instead of allocated.
func NewSession(net *simnet.Network, senderNode simnet.NodeID, group simnet.GroupID,
	port simnet.Port, cfg Config, rng *sim.Rand) *Session {
	s := sim.Pooled[Session](net.Arena(), sessionArenaKey)
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

// AddReceiver joins an explicit receiver on the given node.
func (s *Session) AddReceiver(node simnet.NodeID) *Receiver {
	id := s.nextID
	r := newReceiver(id, s.Net, node, s.Port, s.Sender.addr, s.Group, s.rng)
	s.Receivers = append(s.Receivers, r)
	s.nextID++
	return r
}

// AddCohort joins a cohort of size homogeneous receivers modelled by one
// probe endpoint on the given node (see cohort.go). The cohort
// occupies the next size receiver IDs; its probe — the minimum-rate
// member and CLR candidate — reports as the first of them.
func (s *Session) AddCohort(node simnet.NodeID, size int) *Receiver {
	if size < 1 {
		size = 1
	}
	c := newCohortReceiver(s.nextID, s.Net, node, s.Port, s.Sender.addr, s.Group, s.rng, size)
	s.Receivers = append(s.Receivers, c)
	s.nextID += ReceiverID(size)
	return c
}

// MemberCount returns how many receivers the session represents in
// total (explicit receivers count 1, cohorts their membership).
func (s *Session) MemberCount() int { return int(s.nextID) }

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
	if int(clr) < 0 || int(clr) >= int(s.nextID) {
		return fmt.Sprintf("CLR id %d out of range (session has %d receivers)", clr, int(s.nextID))
	}
	if silent := snd.CLRSilentRounds(); silent > CLRTimeoutRounds+2 {
		return fmt.Sprintf("CLR %d silent for %d rounds (> timeout of %d rounds) without re-election", clr, silent, CLRTimeoutRounds)
	}
	return ""
}

// ValidRTTCount returns how many receivers have a real RTT measurement
// (the Figure 12 metric). A cohort's members all share the probe's
// measurement state, so a valid cohort contributes its whole membership.
func (s *Session) ValidRTTCount() int {
	n := 0
	for _, r := range s.Receivers {
		if r.HasValidRTT() {
			n += r.Members()
		}
	}
	return n
}
