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

// Config holds the tunables of a TCP connection.
type Config struct {
	PacketSize int      // data segment size in bytes (default 1000)
	AckSize    int      // ACK size in bytes (default 40)
	InitialRTO sim.Time // default 1s
	MinRTO     sim.Time // default 200ms
	MaxRTO     sim.Time // default 64s
	MaxCwnd    float64  // cap in packets (default 10000)

	// Overhead adds a uniform random delay in [0, Overhead) before each
	// data transmission, like ns-2's overhead_ parameter. It breaks the
	// perfect ACK clocking that otherwise lets TCP systematically dodge
	// drop-tail overflows that paced (rate-based) flows must absorb —
	// the well-known drop-tail phase effect. Default 2ms.
	Overhead sim.Time
}

// DefaultConfig returns ns-2-like defaults.
func DefaultConfig() Config {
	return Config{
		PacketSize: 1000,
		AckSize:    40,
		InitialRTO: sim.Second,
		MinRTO:     200 * sim.Millisecond,
		MaxRTO:     64 * sim.Second,
		MaxCwnd:    10000,
		Overhead:   2 * sim.Millisecond,
	}
}

// Sender is a TCP NewReno sender with an unlimited data source.
type Sender struct {
	cfg  Config
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
// Call Start to begin transmitting.
func NewSender(name string, net *simnet.Network, src, dst simnet.Addr, cfg Config) *Sender {
	if cfg.PacketSize == 0 {
		cfg = DefaultConfig()
	}
	s := &Sender{
		cfg: cfg, net: net, sch: net.SchedFor(src.Node), rng: net.RandFor(src.Node),
		src: src, dst: dst, name: name,
		cwnd: 1, ssthresh: cfg.MaxCwnd, rto: cfg.InitialRTO,
	}
	s.sendFn = func(a any) { s.net.Send(a.(*simnet.Packet)) }
	s.timeoutFn = func(any) { s.onTimeout() }
	net.Bind(src, simnet.HandlerFunc(s.recv))
	return s
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
	cw := math.Min(s.cwnd, s.cfg.MaxCwnd)
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
	pkt.Size = s.cfg.PacketSize
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
	if s.cfg.Overhead > 0 {
		depart := s.sch.Now() + sim.Time(s.rng.Uniform(0, float64(s.cfg.Overhead)))
		// Keep departures monotonic so the jitter cannot reorder segments.
		if depart < s.lastDepart {
			depart = s.lastDepart
		}
		s.lastDepart = depart
		s.sch.AtArg(depart, s.sendFn, pkt)
	} else {
		s.net.Send(pkt)
	}
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
		if d > s.cfg.MaxRTO {
			d = s.cfg.MaxRTO
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

// recv handles ACKs. They arrive as pooled *Ack boxes owned by the
// packet, so the value is copied out before anything else runs.
func (s *Sender) recv(pkt *simnet.Packet) {
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
	_ = newlyAcked
	if s.cwnd < s.ssthresh {
		s.cwnd = math.Min(s.cwnd+1, s.cfg.MaxCwnd) // slow start
	} else {
		s.cwnd = math.Min(s.cwnd+1/s.cwnd, s.cfg.MaxCwnd) // congestion avoidance
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
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
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
	src   simnet.Addr // the sink's own address
	peer  simnet.Addr // the sender
	cfg   Config
	next  int64 // next expected sequence
	ooo   map[int64]bool
	Meter *stats.Meter // optional goodput meter (counts in-order bytes)

	DeliveredPackets int64
}

// NewSink creates a sink at addr acking to peer.
func NewSink(net *simnet.Network, addr, peer simnet.Addr, cfg Config) *Sink {
	if cfg.PacketSize == 0 {
		cfg = DefaultConfig()
	}
	k := &Sink{net: net, src: addr, peer: peer, cfg: cfg, ooo: map[int64]bool{}}
	net.Bind(addr, simnet.HandlerFunc(k.recv))
	return k
}

// recv handles data segments (pooled *Segment boxes; copied at entry)
// and acknowledges with a pooled *Ack box on the reply packet.
func (k *Sink) recv(pkt *simnet.Packet) {
	sp, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	seg := *sp
	k.DeliveredPackets++
	if seg.Seq == k.next {
		k.advance(pkt.Size)
		for k.ooo[k.next] {
			delete(k.ooo, k.next)
			k.advance(pkt.Size)
		}
	} else if seg.Seq > k.next {
		k.ooo[seg.Seq] = true
	}
	ack := k.net.AllocPacketClass(classAck)
	ack.Size = k.cfg.AckSize
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
func NewFlow(name string, net *simnet.Network, from, to simnet.NodeID, port simnet.Port, cfg Config) (*Sender, *Sink) {
	sAddr := simnet.Addr{Node: from, Port: port}
	kAddr := simnet.Addr{Node: to, Port: port}
	snd := NewSender(name, net, sAddr, kAddr, cfg)
	snk := NewSink(net, kAddr, sAddr, cfg)
	return snd, snk
}
