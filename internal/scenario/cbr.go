package scenario

import (
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// cbrClass is the CBR packet recycling class (see
// simnet.Network.AllocPacketClass).
const cbrClass = 8

// CBRData is the payload header of a CBR packet, boxed as a pooled
// pointer riding the recycled packet (see simnet.Network.AllocPacket).
type CBRData struct {
	Seq int64
}

// CBR is a constant-bit-rate unicast source — the classic background
// cross-traffic agent. The send loop is closure-free and its packets
// reuse pooled header boxes, so a running CBR allocates nothing in
// steady state.
type CBR struct {
	net  *simnet.Network
	sch  *sim.Scheduler
	src  simnet.Addr
	dst  simnet.Addr
	rate float64 // bytes/second
	size int     // packet size

	running bool
	timer   sim.Timer
	seq     int64

	SentPackets int64
}

// NewCBR creates a stopped CBR source sending size-byte packets at rate
// bytes/second from src to dst.
func NewCBR(net *simnet.Network, src, dst simnet.Addr, rate float64, size int) *CBR {
	return &CBR{net: net, sch: net.SchedFor(src.Node), src: src, dst: dst, rate: rate, size: size}
}

// Start begins (or resumes) the paced transmission loop with an
// immediate first packet.
func (c *CBR) Start() {
	if c.running {
		return
	}
	c.running = true
	c.tick()
}

// Stop pauses transmission; Start resumes it.
func (c *CBR) Stop() {
	c.running = false
	c.timer.Stop()
}

func cbrTick(a any) { a.(*CBR).tick() }

func (c *CBR) tick() {
	if !c.running {
		return
	}
	pkt := c.net.AllocPacketClass(cbrClass)
	d, ok := pkt.Payload.(*CBRData)
	if !ok {
		d = new(CBRData)
		pkt.Payload = d
	}
	d.Seq = c.seq
	c.seq++
	pkt.Size = c.size
	pkt.Src = c.src
	pkt.Dst = c.dst
	c.net.Send(pkt)
	c.SentPackets++
	c.timer = c.sch.AfterArg(sim.FromSeconds(float64(c.size)/c.rate), cbrTick, c)
}

// CBRSink counts delivered CBR bytes into an optional meter.
type CBRSink struct {
	Meter            *stats.Meter
	DeliveredPackets int64
}

// Recv implements simnet.Handler.
func (k *CBRSink) Recv(pkt *simnet.Packet) {
	if _, ok := pkt.Payload.(*CBRData); !ok {
		return
	}
	k.DeliveredPackets++
	if k.Meter != nil {
		k.Meter.Add(pkt.Size)
	}
}
