package simnet

import "repro/internal/sim"

// LinkStats counts per-link traffic for tracing and assertions. The
// three every delivered packet updates come first (see Link).
type LinkStats struct {
	Sent       int64 // packets handed to the link
	Deliver    int64 // packets delivered to the far node
	Bytes      int64 // bytes delivered
	DropQ      int64 // queue (congestion) drops
	DropRand   int64 // random-loss-module drops
	DropDown   int64 // packets refused because the link was down
	Corrupted  int64 // packets corrupted in transit (dropped at checksum)
	Duplicated int64 // extra copies injected by the duplication module
	Reordered  int64 // packets delayed by the reordering module
}

// Link is a unidirectional link with bandwidth, propagation delay, a
// queue, and an optional random loss module. A zero Bandwidth means an
// infinitely fast link (no serialisation, no queueing) — used for the
// star access links in the large-receiver-set experiments where only
// delay and random loss matter.
//
// Each packet on a link is one scheduler timer per stage: a serialiser
// completion, then its arrival at the far node (or a handoff, on a link
// that crosses regions). The only exception is a copy boarded on its
// parent node's fan-out train (train.go), which never reaches the link's
// own timers.
//
// Field order serves the per-copy path of a large fan-out, which visits a
// thousand links per packet: everything a copy boarding a train reads or
// writes — the far node, the entry modules' checks (admit, fixedDelay),
// the delay and the Sent/Deliver/Bytes counters — fills the first 64-byte
// line. The struct, queue held inline, is padded to 256 bytes, a size
// class the allocator aligns to 64, so that line is one line of memory.
// The impairment modules are summed up there by impaired and read behind
// it only when one is armed; the rest is touched only by links that
// queue, cross regions or drop. TestLinkLineBudget pins it.
type Link struct {
	To        NodeID
	Delay     sim.Time // propagation delay; change it at runtime with SetDelay
	LossProb  float64  // Bernoulli drop probability on entry
	Bandwidth float64  // bytes per second; 0 = infinite

	down bool
	busy bool
	// impaired is set while any of corrupt, dup or reorder is non-zero.
	impaired bool
	// crossTo is the destination region when the link crosses a region
	// boundary (-1 otherwise): propagation over a crossing link is
	// scheduled on the destination region's scheduler, not the local one.
	crossTo int32

	Stats LinkStats

	// Fault-injection impairments (all off by default; set them with
	// SetImpairments). Each module draws from the network RNG only when
	// its rate is non-zero, so a run with no impairments consumes exactly
	// the same random sequence as before the fault layer existed.
	corrupt      float64  // Bernoulli in-transit corruption (counted drop)
	dup          float64  // Bernoulli duplication (a second copy is sent)
	reorder      float64  // Bernoulli extra propagation delay (reordering)
	reorderDelay sim.Time // max extra delay for a reordered packet

	From NodeID
	Q    DropTail

	// Execution binding (see Network.bindLink): the scheduler and RNG the
	// link's entry modules and serialiser run on. On a serial network these
	// are the network's globals; on a sharded one they belong to the
	// from-side region, so every draw and timer stays shard-local.
	net   *Network
	sched *sim.Scheduler
	rng   *sim.Rand

	// Pre-bound callbacks so per-packet scheduling allocates no closures;
	// the packet rides along as the event argument.
	deliverFn func(any)
	txDoneFn  func(any)

	_ [linkPad]byte
}

// linkPad rounds Link up to 256 bytes.
const linkPad = 16

// init sets the link up as AddLink creates it, on a new *Link or on one
// an earlier run of a rewound network left behind: counters zeroed,
// entry modules off, the queue emptied (its ring storage kept), and the
// link bound to its scheduler and RNG. The pre-bound callbacks and the
// queue survive.
func (l *Link) init(n *Network, from, to NodeID, bandwidth float64, delay sim.Time, queueLimit int) {
	l.Q.reset(queueLimit)
	*l = Link{From: from, To: to, Bandwidth: bandwidth, Delay: delay, Q: l.Q, net: n,
		deliverFn: l.deliverFn, txDoneFn: l.txDoneFn}
	n.bindLink(l)
}

// SetDelay changes the link's propagation delay at runtime (a scenario
// event: route flaps, mobility, load-dependent latency). Unicast routes
// and multicast trees depend on delay, so a real change invalidates both
// — lazily: routes recompute at the next Send, and only the trees that
// are actually forwarded over again are recompiled. Packets already in
// flight (queued, serialising, or propagating) keep the delay they were
// scheduled with; the new delay applies from the next hop transmission.
func (l *Link) SetDelay(d sim.Time) {
	if d == l.Delay {
		return
	}
	l.Delay = d
	l.net.noteDelayChange()
}

// SetBandwidth changes the link's bandwidth (bytes/second, 0 = infinite)
// at runtime. Routing is delay-based, so no caches are invalidated; a
// packet currently on the serialiser finishes at the old rate and the
// next dequeue uses the new one. Note that packets queued behind a link
// narrowed to 0 (infinite) drain instantaneously.
func (l *Link) SetBandwidth(bw float64) { l.Bandwidth = bw }

// SetLoss changes the link's Bernoulli drop probability at runtime.
// Nothing caches loss, so this is a plain field write kept as a method
// for symmetry with SetDelay/SetBandwidth in event scripts.
func (l *Link) SetLoss(p float64) { l.LossProb = p }

// SetDown takes the link down (or brings it back up). A down link is
// excluded from route computation, so traffic reroutes around it when an
// alternative path exists and otherwise becomes a counted Unreachable
// drop (see Network.Faults). Packets already serialising or propagating
// when the link goes down finish their hop; packets queued behind the
// serialiser drain too — only new send attempts are refused. Routing and
// compiled multicast trees depend on link availability, so a state change
// invalidates both, exactly like a delay change.
func (l *Link) SetDown(down bool) {
	if down == l.down {
		return
	}
	l.down = down
	l.net.noteDelayChange()
}

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }

// SetImpairments configures the corruption/duplication/reordering
// modules in one call (a scenario Impair event). extra is the maximum
// additional propagation delay for reordered packets; it is ignored when
// reorder is zero.
func (l *Link) SetImpairments(corrupt, dup, reorder float64, extra sim.Time) {
	l.corrupt, l.dup, l.reorder = corrupt, dup, reorder
	l.reorderDelay = extra
	l.impaired = corrupt != 0 || dup != 0 || reorder != 0
}

// send places a packet on the link, applying the down state, the loss,
// corruption and duplication modules, and the queue. It consumes one
// packet reference on every path that ends here (drops).
func (l *Link) send(pkt *Packet) {
	if !l.admit(pkt) {
		return
	}
	if l.dup > 0 && l.rng.Bool(l.dup) {
		l.Stats.Duplicated++
		l.net.faults.Duplicated++
		pkt.refs++ // the extra copy consumes its own reference downstream
		l.xmit(pkt)
	}
	l.xmit(pkt)
}

// admit counts a packet onto the link and runs the entry modules that can
// refuse it — down state, random loss, corruption — in that order. A
// refused packet's reference is consumed here and admit reports false.
func (l *Link) admit(pkt *Packet) bool {
	l.Stats.Sent++
	if l.down {
		l.Stats.DropDown++
		l.net.faults.Unreachable++
		l.net.releasePkt(pkt)
		return false
	}
	if l.LossProb > 0 && l.rng.Bool(l.LossProb) {
		l.Stats.DropRand++
		l.net.releasePkt(pkt)
		return false
	}
	if l.impaired && l.corrupt > 0 && l.rng.Bool(l.corrupt) {
		// Corrupted in transit: the far end's checksum rejects it, so it
		// behaves as a counted drop.
		l.Stats.Corrupted++
		l.net.faults.Corrupted++
		l.net.releasePkt(pkt)
		return false
	}
	return true
}

// fixedDelay reports whether a packet admitted now reaches the far node
// exactly Delay later on this link's own scheduler, with no further
// random draw: no serialiser, no region crossing, and neither the
// duplication nor the reordering module armed. Such a copy can ride a
// fan-out train (see train.go); the answer can change between packets.
func (l *Link) fixedDelay() bool {
	return l.Bandwidth <= 0 && l.crossTo < 0 && (!l.impaired || !l.redraws())
}

// redraws reports whether the duplication or the reordering module is
// armed, so that a copy needs a further draw past admit.
func (l *Link) redraws() bool { return l.dup != 0 || l.reorder != 0 }

// xmit moves a packet past the entry modules onto the wire: pure delay
// for infinite links, queue + serialiser otherwise.
func (l *Link) xmit(pkt *Packet) {
	if l.Bandwidth <= 0 {
		// Infinite-speed link: pure delay.
		l.propagate(pkt)
		return
	}
	if !l.Q.Enqueue(pkt, l.sched.Now()) {
		l.Stats.DropQ++
		l.net.releasePkt(pkt)
		return
	}
	if !l.busy {
		l.busy = true
		l.startTx()
	}
}

// propDelay returns the propagation delay for one packet, stretched by
// the reordering module: a reordered packet takes up to reorderDelay
// extra, letting later packets overtake it.
func (l *Link) propDelay() sim.Time {
	d := l.Delay
	if l.reorder > 0 && l.rng.Bool(l.reorder) {
		l.Stats.Reordered++
		d = sim.Later(d, sim.Time(float64(l.reorderDelay)*l.rng.Float64()))
	}
	return d
}

// propagate starts a packet's propagation towards the far node: one
// timer per packet, on the far node's region scheduler when the link
// crosses regions (the crossing delay is at least the lookahead, so the
// arrival is at or after the window's end, which the destination's clock
// has not passed). Either way an arrival past the end of sim.Time is
// scheduled at MaxTime.
func (l *Link) propagate(pkt *Packet) {
	d := l.propDelay()
	if l.crossTo >= 0 {
		l.net.regions.handoffs++
		l.net.regions.shards[l.crossTo].sched.AtArg(sim.Later(l.sched.Now(), d), l.deliverFn, pkt)
		return
	}
	l.sched.AfterArg(d, l.deliverFn, pkt)
}

func (l *Link) startTx() {
	pkt := l.Q.Dequeue(l.sched.Now())
	if pkt == nil {
		l.busy = false
		return
	}
	var txTime sim.Time
	if l.Bandwidth > 0 {
		txTime = sim.FromSeconds(float64(pkt.Size) / l.Bandwidth)
	}
	// Bandwidth 0 here means the link was widened to infinite via
	// SetBandwidth while packets were queued: drain them instantly.
	l.sched.AfterArg(txTime, l.txDoneFn, pkt)
}

// txDone runs when a packet's last bit leaves the serialiser: propagation
// starts and the next queued packet (if any) begins transmission.
func (l *Link) txDone(a any) {
	pkt := a.(*Packet)
	l.propagate(pkt)
	l.startTx()
}

func (l *Link) deliverArg(a any) { l.deliver(l.net, a.(*Packet)) }

// deliver hands a packet to the far node. The caller passes the network
// in, so a train's copy reads nothing of the link past its first line.
func (l *Link) deliver(n *Network, pkt *Packet) {
	l.Stats.Deliver++
	l.Stats.Bytes += int64(pkt.Size)
	n.arrive(l.To, pkt)
}
