// Package tfrc implements unicast TCP-Friendly Rate Control (Floyd,
// Handley, Padhye, Widmer, SIGCOMM 2000; RFC 3448) on top of simnet. It
// is the protocol TFMCC extends to multicast: same control equation, same
// loss-interval measurement, but sender-side rate computation and a
// single receiver reporting once per RTT.
//
// No command or registered experiment runs it. It is kept as the
// reference implementation TestSingleReceiverTracksTFRC compares a
// one-receiver TFMCC session against (CI's reachability check allowlists
// the package for that reason).
package tfrc

import (
	"math"

	"repro/internal/lossrate"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tcpmodel"
)

// Packet recycling classes (see simnet.Network.AllocPacketClass).
const (
	classData     = 3
	classFeedback = 4
)

// Data is a TFRC data packet header.
type Data struct {
	Seq       int64
	SendTime  sim.Time
	Rate      float64  // current sending rate (bytes/s)
	EchoTS    sim.Time // echoed receiver report timestamp
	EchoDelay sim.Time
	RTT       sim.Time // sender's current RTT estimate (for loss aggregation)
}

// Feedback is the once-per-RTT receiver report.
type Feedback struct {
	Timestamp sim.Time // receiver clock (echoed back for RTT)
	EchoTS    sim.Time // SendTime of the most recent data packet
	EchoDelay sim.Time
	LossRate  float64 // loss event rate p
	RecvRate  float64 // measured receive rate, bytes/s
	HasLoss   bool
}

// TFMCC's parameter set, so the two protocols compare like for like.
// Every flow runs it; an experiment on one is an edit to its constant
// here.
const (
	PacketSize       int     = 1000 // data packet size in bytes
	ReportSize       int     = 40   // feedback report size in bytes
	InitialRate      float64 = 2000 // sender start rate, bytes/s
	MinRate          float64 = 125  // rate floor, bytes/s
	NumLossIntervals int     = 8    // loss history depth n
)

// Values derived from the constants, shared by every flow and never
// written: the TCP response function and the loss-interval weights.
var (
	model       = tcpmodel.Default()
	lossWeights = lossrate.Weights(NumLossIntervals)
)

// Sender paces data packets and adjusts the rate from receiver feedback
// using the TCP model.
type Sender struct {
	net  *simnet.Network
	sch  *sim.Scheduler
	addr simnet.Addr
	peer simnet.Addr

	running   bool
	seq       int64
	rate      float64
	slowstart bool

	srtt     sim.Time
	haveRTT  bool
	lastEcho Feedback
	echoAt   sim.Time
	haveEcho bool

	noFeedback sim.Timer
	sendFn     func(any) // pre-bound so pacing allocates no closure per packet
	noFbFn     func(any) // pre-bound no-feedback expiry

	PacketsSent int64
}

// NewSender creates a TFRC sender bound to addr, sending to peer.
func NewSender(net *simnet.Network, addr, peer simnet.Addr) *Sender {
	s := &Sender{
		net: net, sch: net.Scheduler(),
		addr: addr, peer: peer,
		rate: InitialRate, slowstart: true,
	}
	s.sendFn = func(any) { s.sendLoop() }
	s.noFbFn = func(any) { s.onNoFeedback() }
	net.Bind(addr, simnet.HandlerFunc(s.recv))
	return s
}

// Start begins transmission.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.armNoFeedback()
	s.sendLoop()
}

// Stop halts transmission.
func (s *Sender) Stop() { s.running = false }

// Rate returns the current sending rate in bytes/s.
func (s *Sender) Rate() float64 { return s.rate }

// RTT returns the smoothed RTT estimate (0 before the first feedback).
func (s *Sender) RTT() sim.Time { return s.srtt }

// InSlowstart reports whether the first loss has yet to be reported.
func (s *Sender) InSlowstart() bool { return s.slowstart }

func (s *Sender) sendLoop() {
	if !s.running {
		return
	}
	now := s.sch.Now()
	d := Data{
		Seq:      s.seq,
		SendTime: now,
		Rate:     s.rate,
		RTT:      s.currentRTT(),
	}
	if s.haveEcho {
		d.EchoTS = s.lastEcho.Timestamp
		d.EchoDelay = now - s.echoAt
		s.haveEcho = false
	}
	s.seq++
	s.PacketsSent++
	pkt := s.net.AllocPacketClass(classData)
	pkt.Size = PacketSize
	pkt.Src = s.addr
	pkt.Dst = s.peer
	// Recycled packets keep their header box: reusing it makes the
	// steady-state data path allocation-free (see Network.AllocPacket).
	dp, ok := pkt.Payload.(*Data)
	if !ok {
		dp = new(Data)
		pkt.Payload = dp
	}
	*dp = d
	s.net.Send(pkt)
	s.sch.AfterArg(sim.FromSeconds(float64(PacketSize)/s.rate), s.sendFn, nil)
}

func (s *Sender) currentRTT() sim.Time {
	if !s.haveRTT {
		return 500 * sim.Millisecond
	}
	return s.srtt
}

// recv handles feedback, carried as a pooled *Feedback box owned by the
// packet; the value is copied out before anything is kept.
func (s *Sender) recv(pkt *simnet.Packet) {
	fp, ok := pkt.Payload.(*Feedback)
	if !ok || !s.running {
		return
	}
	fb := *fp
	now := s.sch.Now()
	sample := now - fb.EchoTS - fb.EchoDelay
	if sample > 0 {
		if !s.haveRTT {
			s.haveRTT = true
			s.srtt = sample
		} else {
			s.srtt = sim.Time(0.1*float64(sample) + 0.9*float64(s.srtt))
		}
	}
	s.lastEcho = fb
	s.echoAt = now
	s.haveEcho = true

	if s.slowstart && fb.HasLoss {
		s.slowstart = false
	}
	if s.slowstart {
		// Double per RTT, bounded by twice the reported receive rate.
		target := math.Min(2*s.rate, 2*math.Max(fb.RecvRate, InitialRate))
		if target > s.rate {
			s.rate = target
		}
	} else if fb.LossRate > 0 {
		x := model.Throughput(fb.LossRate, s.currentRTT().Seconds())
		// RFC 3448: never more than twice the rate the receiver saw.
		x = math.Min(x, 2*fb.RecvRate)
		s.setRate(x)
	}
	s.armNoFeedback()
}

func (s *Sender) setRate(x float64) {
	if x < MinRate {
		x = MinRate
	}
	s.rate = x
}

// armNoFeedback (re)starts the no-feedback timer: when no report arrives
// for 4 RTTs (or 2 packet intervals at low rates), the rate is halved.
func (s *Sender) armNoFeedback() {
	d := sim.MaxOf(s.currentRTT().Scale(4),
		sim.FromSeconds(2*float64(PacketSize)/s.rate))
	s.noFeedback = s.sch.RearmArg(s.noFeedback, d, s.noFbFn, nil)
}

func (s *Sender) onNoFeedback() {
	if !s.running {
		return
	}
	s.setRate(s.rate / 2)
	s.armNoFeedback()
}

// Receiver measures loss and reports once per RTT.
type Receiver struct {
	net  *simnet.Network
	sch  *sim.Scheduler
	addr simnet.Addr
	peer simnet.Addr

	est         *lossrate.Estimator
	haveSeq     bool
	nextSeq     int64
	lastArrival sim.Time
	lastData    Data
	winBytes    []int
	winTimes    []sim.Time
	nextReport  sim.Time

	Meter *stats.Meter

	PacketsRecv int64
	Losses      int64
}

// NewReceiver creates a TFRC receiver bound to addr reporting to peer.
func NewReceiver(net *simnet.Network, addr, peer simnet.Addr) *Receiver {
	r := &Receiver{
		net: net, sch: net.Scheduler(),
		addr: addr, peer: peer,
		est: lossrate.NewEstimator(lossWeights),
	}
	// The sender's RTT travels with every packet, so loss events are
	// never re-aggregated and the estimator keeps no recent losses.
	r.est.StopRecording()
	net.Bind(addr, simnet.HandlerFunc(r.recv))
	return r
}

// LossEventRate returns the receiver's measured loss event rate.
func (r *Receiver) LossEventRate() float64 { return r.est.LossEventRate() }

// recv handles data packets (pooled *Data boxes; copied at entry).
func (r *Receiver) recv(pkt *simnet.Packet) {
	dp, ok := pkt.Payload.(*Data)
	if !ok {
		return
	}
	d := *dp
	now := r.sch.Now()
	r.PacketsRecv++
	if r.Meter != nil {
		r.Meter.Add(pkt.Size)
	}
	if r.haveSeq && d.Seq > r.nextSeq {
		missing := d.Seq - r.nextSeq
		span := now - r.lastArrival
		for i := int64(0); i < missing; i++ {
			t := r.lastArrival + span.Scale(float64(i+1)/float64(missing+1))
			r.Losses++
			r.est.OnLoss(t, d.RTT)
		}
	}
	r.est.OnPacket()
	r.haveSeq = true
	r.nextSeq = d.Seq + 1
	r.lastArrival = now
	r.lastData = d
	r.winTimes = append(r.winTimes, now)
	r.winBytes = append(r.winBytes, pkt.Size)
	if len(r.winTimes) > 256 {
		r.winTimes = append([]sim.Time(nil), r.winTimes[128:]...)
		r.winBytes = append([]int(nil), r.winBytes[128:]...)
	}

	if now >= r.nextReport {
		r.report(now, d)
		r.nextReport = now + sim.MaxOf(d.RTT, sim.FromSeconds(float64(PacketSize)/d.Rate))
	}
}

func (r *Receiver) report(now sim.Time, d Data) {
	window := sim.MaxOf(d.RTT.Scale(2), sim.FromSeconds(8*float64(PacketSize)/d.Rate))
	cut := now - window
	var bytes int64
	for i := len(r.winTimes) - 1; i >= 0 && r.winTimes[i] >= cut; i-- {
		bytes += int64(r.winBytes[i])
	}
	fb := r.net.AllocPacketClass(classFeedback)
	fb.Size = ReportSize
	fb.Src = r.addr
	fb.Dst = r.peer
	fp, ok := fb.Payload.(*Feedback)
	if !ok {
		fp = new(Feedback)
		fb.Payload = fp
	}
	*fp = Feedback{
		Timestamp: now,
		EchoTS:    d.SendTime,
		EchoDelay: now - r.lastArrival,
		LossRate:  r.est.LossEventRate(),
		RecvRate:  float64(bytes) / window.Seconds(),
		HasLoss:   r.est.HaveLoss(),
	}
	r.net.Send(fb)
}

// NewFlow wires a TFRC sender/receiver pair between two nodes.
func NewFlow(net *simnet.Network, from, to simnet.NodeID, port simnet.Port) (*Sender, *Receiver) {
	sAddr := simnet.Addr{Node: from, Port: port}
	rAddr := simnet.Addr{Node: to, Port: port}
	snd := NewSender(net, sAddr, rAddr)
	rcv := NewReceiver(net, rAddr, sAddr)
	return snd, rcv
}
