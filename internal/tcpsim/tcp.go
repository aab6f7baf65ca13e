// Package tcpsim implements a packet-level TCP NewReno sender and sink on
// top of simnet, equivalent to the ns-2 TCP agents the paper's TFMCC
// flows compete against: slow start, congestion avoidance, fast
// retransmit/recovery with NewReno partial-ACK handling, and exponential
// RTO backoff. The sender models an unlimited ("FTP") source.
package tcpsim

import (
	"math"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Packet recycling classes (see simnet.Network.AllocPacketClass):
// separating segments from ACKs keeps each recycled packet's pooled
// header box type-stable, so the steady-state path never reallocates.
const (
	classSegment = 1
	classAck     = 2
)

// Segment is the payload of a TCP data packet.
type Segment struct {
	Seq int64
}

// Ack is the payload of a TCP acknowledgement.
type Ack struct {
	CumAck int64 // next expected sequence number
}

// ns-2's TCP agent defaults. Every connection runs them; an experiment
// on one is an edit to its constant here.
const (
	PacketSize int      = 1000 // data segment size in bytes
	AckSize    int      = 40   // ACK size in bytes
	InitialRTO sim.Time = sim.Second
	MinRTO     sim.Time = 200 * sim.Millisecond
	MaxRTO     sim.Time = 64 * sim.Second // cap of the backed-off RTO
	MaxCwnd    float64  = 10000           // window cap in packets

	// Overhead adds a uniform random delay in [0, Overhead) before each
	// data transmission, like ns-2's overhead_ parameter. It breaks the
	// perfect ACK clocking that otherwise lets TCP systematically dodge
	// drop-tail overflows that paced (rate-based) flows must absorb —
	// the well-known drop-tail phase effect.
	Overhead sim.Time = 2 * sim.Millisecond
)

// Config carries no value: every connection runs the constants above.
// It is kept, with DefaultConfig and NewFlow's parameter, for the caller
// in bench/.
type Config struct{}

// DefaultConfig returns the empty Config.
func DefaultConfig() Config { return Config{} }

// Sender is a TCP NewReno sender with an unlimited data source.
type Sender struct {
	net  *simnet.Network
	sch  *sim.Scheduler
	rng  *sim.Rand
	src  simnet.Addr
	dst  simnet.Addr
	name string

	cwnd     float64
	ssthresh float64
	una      int64 // oldest unacknowledged
	nextSeq  int64 // next new sequence to transmit
	dupAcks  int
	inFR     bool  // fast recovery
	recover  int64 // NewReno recovery point

	srtt, rttvar sim.Time
	rto          sim.Time
	haveRTT      bool
	rtoTimer     sim.Timer
	sendFn       func(any) // pre-bound so jittered departures allocate no closure
	timeoutFn    func(any) // pre-bound so re-arming the RTO allocates no closure
	backoff      int
	stopped      bool

	rttSeq     int64
	rttSentAt  sim.Time
	rttPending bool
	lastDepart sim.Time
	maxSeqTx   int64 // highest sequence ever transmitted

	// Stats.
	SentPackets  int64
	Retransmits  int64
	Timeouts     int64
	FastRecovers int64
}

// NewSender creates a TCP sender bound to src, talking to a Sink at dst.
// On a rewound network the sender is recycled from the network's arena.
// Call Start to begin transmitting.
func NewSender(name string, net *simnet.Network, src, dst simnet.Addr) *Sender {
	s := sim.Pooled[Sender](net.Arena())
	s.init(name, net, src, dst)
	net.Bind(src, s)
	return s
}

// init sets every field of a new or recycled sender as a fresh one
// starts. The pre-bound callbacks are made once per object: they call
// back into the same pointer, so a recycled sender keeps them.
func (s *Sender) init(name string, net *simnet.Network, src, dst simnet.Addr) {
	sendFn, timeoutFn := s.sendFn, s.timeoutFn
	if sendFn == nil {
		sendFn = func(a any) { s.net.Send(a.(*simnet.Packet)) }
		timeoutFn = func(any) { s.onTimeout() }
	}
	*s = Sender{
		net: net, sch: net.SchedFor(src.Node), rng: net.RandFor(src.Node),
		src: src, dst: dst, name: name,
		cwnd: 1, ssthresh: MaxCwnd, rto: InitialRTO,
		sendFn: sendFn, timeoutFn: timeoutFn,
	}
}

// Start begins (or, after Stop, resumes) the transfer. ACKs received
// while stopped were discarded, so segments still outstanding from
// before the pause are treated as lost: go-back-N from the cumulative
// ACK point, exactly like a retransmission timeout, or the window would
// stay full forever with no timer running to drain it.
func (s *Sender) Start() {
	s.stopped = false
	if s.flight() > 0 {
		s.dupAcks = 0
		s.inFR = false
		s.rttPending = false // Karn: everything below is a retransmit
		s.nextSeq = s.una
		s.recover = s.una
	}
	s.trySend()
}

// Stop quiesces the sender: no new transmissions, the retransmission
// timer is cancelled, and incoming ACKs are ignored until Start is
// called again. Used by scenario scripts to model on/off cross-traffic.
func (s *Sender) Stop() {
	s.stopped = true
	s.rtoTimer.Stop()
}

// Cwnd returns the current congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

func (s *Sender) flight() float64 { return float64(s.nextSeq - s.una) }

func (s *Sender) trySend() {
	if s.stopped {
		return
	}
	cw := math.Min(s.cwnd, MaxCwnd)
	for s.flight() < math.Floor(cw) {
		s.transmit(s.nextSeq, false)
		s.nextSeq++
	}
}

func (s *Sender) transmit(seq int64, isRetx bool) {
	// A send of any previously-transmitted sequence is a retransmission,
	// whether it arrives here via loss recovery or a go-back-N rewind.
	if seq < s.maxSeqTx {
		isRetx = true
	} else {
		s.maxSeqTx = seq + 1
	}
	s.SentPackets++
	if isRetx {
		s.Retransmits++
		// Karn: a pending RTT probe covered by this retransmission would
		// yield an ambiguous (inflated) sample — drop it.
		if s.rttPending && seq <= s.rttSeq {
			s.rttPending = false
		}
	}
	pkt := s.net.AllocPacketClass(classSegment)
	pkt.Size = PacketSize
	pkt.Src = s.src
	pkt.Dst = s.dst
	// Recycled packets keep their header box: reusing it makes the
	// steady-state data path allocation-free (see Network.AllocPacket).
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		seg = new(Segment)
		pkt.Payload = seg
	}
	seg.Seq = seq
	depart := s.sch.Now() + sim.Time(s.rng.Uniform(0, float64(Overhead)))
	// Keep departures monotonic so the jitter cannot reorder segments.
	if depart < s.lastDepart {
		depart = s.lastDepart
	}
	s.lastDepart = depart
	s.sch.AtArg(depart, s.sendFn, pkt)
	if !isRetx && !s.rttPending {
		s.rttPending = true
		s.rttSeq = seq
		s.rttSentAt = s.sch.Now()
	}
	if !s.rtoTimer.Active() {
		s.armRTO()
	}
}

func (s *Sender) armRTO() {
	d := s.rto
	for i := 0; i < s.backoff; i++ {
		d *= 2
		if d > MaxRTO {
			d = MaxRTO
			break
		}
	}
	s.rtoTimer = s.sch.RearmArg(s.rtoTimer, d, s.timeoutFn, nil)
}

func (s *Sender) onTimeout() {
	if s.una >= s.nextSeq {
		return // nothing outstanding
	}
	s.Timeouts++
	s.ssthresh = math.Max(s.flight()/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inFR = false
	s.backoff++
	s.rttPending = false // Karn: no samples from retransmits
	// Go-back-N: without SACK the sender must be prepared to resend
	// everything beyond the cumulative ACK. Rewind and let the window
	// clock it out; the sink discards duplicates.
	s.transmit(s.una, true)
	s.nextSeq = s.una + 1
	s.recover = s.una
	s.armRTO()
}

// Recv implements simnet.Handler: it handles ACKs. They arrive as
// pooled *Ack boxes owned by the packet, so the value is copied out
// before anything else runs.
func (s *Sender) Recv(pkt *simnet.Packet) {
	ap, ok := pkt.Payload.(*Ack)
	if !ok || s.stopped {
		return
	}
	ack := *ap
	if ack.CumAck > s.una {
		s.onNewAck(ack.CumAck)
	} else if ack.CumAck == s.una && s.flight() > 0 {
		s.onDupAck()
	}
	s.trySend()
}

func (s *Sender) onNewAck(cum int64) {
	// RTT sample (Karn-compliant: only for non-retransmitted probes).
	if s.rttPending && cum > s.rttSeq {
		s.sampleRTT(s.sch.Now() - s.rttSentAt)
		s.rttPending = false
	}
	s.backoff = 0
	newlyAcked := cum - s.una
	s.una = cum
	s.dupAcks = 0
	if s.inFR {
		if cum > s.recover {
			// Full recovery.
			s.inFR = false
			s.cwnd = s.ssthresh
		} else {
			// NewReno partial ACK: retransmit the next hole, deflate.
			s.transmit(s.una, true)
			s.cwnd = math.Max(s.cwnd-float64(newlyAcked)+1, 1)
			s.armRTO()
			return
		}
	}
	// Per-ACK window growth (not per byte): a cumulative ACK that jumps
	// over many go-back-N-resent segments must not inflate the window in
	// one step, or recovery turns into a retransmit burst.
	if s.cwnd < s.ssthresh {
		s.cwnd = math.Min(s.cwnd+1, MaxCwnd) // slow start
	} else {
		s.cwnd = math.Min(s.cwnd+1/s.cwnd, MaxCwnd) // congestion avoidance
	}
	if s.flight() > 0 {
		s.armRTO()
	} else {
		s.rtoTimer.Stop()
	}
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.inFR {
		s.cwnd++ // inflate
		return
	}
	if s.dupAcks == 3 {
		s.FastRecovers++
		s.ssthresh = math.Max(s.flight()/2, 2)
		s.cwnd = s.ssthresh + 3
		s.inFR = true
		s.recover = s.nextSeq
		s.rttPending = false
		s.transmit(s.una, true)
		s.armRTO()
	}
}

func (s *Sender) sampleRTT(sample sim.Time) {
	if sample <= 0 {
		sample = sim.Millisecond
	}
	if !s.haveRTT {
		s.haveRTT = true
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = sim.Time(0.75*float64(s.rttvar) + 0.25*float64(diff))
		s.srtt = sim.Time(0.875*float64(s.srtt) + 0.125*float64(sample))
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < MinRTO {
		s.rto = MinRTO
	}
	if s.rto > MaxRTO {
		s.rto = MaxRTO
	}
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() sim.Time {
	if !s.haveRTT {
		return 0
	}
	return s.srtt
}

// Sink is a TCP receiver generating one cumulative ACK per segment.
type Sink struct {
	net   *simnet.Network
	src   simnet.Addr  // the sink's own address
	peer  simnet.Addr  // the sender
	next  int64        // next expected sequence
	Meter *stats.Meter // optional goodput meter (counts in-order bytes)

	// ooo is the set of sequences received ahead of next, a bitmap: bit
	// i of word w stands for oooBase + 64w + i, and oooBase never passes
	// next. The words keep their storage when the sink is recycled, so a
	// rewound run grows no new set.
	ooo     []uint64
	oooBase int64

	DeliveredPackets int64
}

// NewSink creates a sink at addr acking to peer. On a rewound network
// the sink is recycled from the network's arena, and its out-of-order
// set is emptied, keeping the storage it grew.
func NewSink(net *simnet.Network, addr, peer simnet.Addr) *Sink {
	k := sim.Pooled[Sink](net.Arena())
	*k = Sink{net: net, src: addr, peer: peer, ooo: k.ooo[:0]}
	net.Bind(addr, k)
	return k
}

// Recv implements simnet.Handler: it handles data segments (pooled
// *Segment boxes; copied at entry) and acknowledges with a pooled *Ack
// box on the reply packet.
func (k *Sink) Recv(pkt *simnet.Packet) {
	sp, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	seg := *sp
	k.DeliveredPackets++
	if seg.Seq == k.next {
		k.advance(pkt.Size)
		for k.take(k.next) {
			k.advance(pkt.Size)
		}
		// Drop the words wholly behind next. A bit left set behind next
		// (a held sequence that arrived again in order) is never read.
		if d := (k.next - k.oooBase) >> 6; d > 0 {
			k.ooo = k.ooo[:copy(k.ooo, k.ooo[min(int(d), len(k.ooo)):])]
			k.oooBase += d << 6
		}
	} else if seg.Seq > k.next {
		k.hold(seg.Seq)
	}
	ack := k.net.AllocPacketClass(classAck)
	ack.Size = AckSize
	ack.Src = k.src
	ack.Dst = k.peer
	ap, ok := ack.Payload.(*Ack)
	if !ok {
		ap = new(Ack)
		ack.Payload = ap
	}
	ap.CumAck = k.next
	k.net.Send(ack)
}

// hold adds seq, received ahead of next, to the out-of-order set.
func (k *Sink) hold(seq int64) {
	off := seq - k.oooBase
	for int(off>>6) >= len(k.ooo) {
		k.ooo = append(k.ooo, 0)
	}
	k.ooo[off>>6] |= 1 << (off & 63)
}

// take removes seq, not behind oooBase, from the out-of-order set and
// reports whether it was there.
func (k *Sink) take(seq int64) bool {
	off := seq - k.oooBase
	if w := int(off >> 6); w < len(k.ooo) && k.ooo[w]&(1<<(off&63)) != 0 {
		k.ooo[w] &^= 1 << (off & 63)
		return true
	}
	return false
}

func (k *Sink) advance(size int) {
	k.next++
	if k.Meter != nil {
		k.Meter.Add(size)
	}
}

// NextExpected returns the sink's cumulative ACK point.
func (k *Sink) NextExpected() int64 { return k.next }

// NewFlow wires a sender/sink pair between two nodes on dedicated ports
// and returns both. The flow starts when Start is called on the sender.
// The Config is ignored.
func NewFlow(name string, net *simnet.Network, from, to simnet.NodeID, port simnet.Port, _ Config) (*Sender, *Sink) {
	sAddr := simnet.Addr{Node: from, Port: port}
	kAddr := simnet.Addr{Node: to, Port: port}
	snd := NewSender(name, net, sAddr, kAddr)
	snk := NewSink(net, kAddr, sAddr)
	return snd, snk
}
