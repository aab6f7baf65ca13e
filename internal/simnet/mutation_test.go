package simnet

import (
	"testing"

	"repro/internal/sim"
)

// TestSetDelayRerouting checks a runtime delay change flips unicast
// routing between two otherwise-equivalent paths of a diamond, including
// flipping back — routes are recomputed lazily after each mutation.
func TestSetDelayRerouting(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	up := net.AddNode("up")
	down := net.AddNode("down")
	b := net.AddNode("b")
	aUp, _ := net.AddDuplex(a, up, 0, 5*sim.Millisecond, 0)
	net.AddDuplex(up, b, 0, 5*sim.Millisecond, 0)
	aDown, _ := net.AddDuplex(a, down, 0, 20*sim.Millisecond, 0)
	net.AddDuplex(down, b, 0, 5*sim.Millisecond, 0)
	got := 0
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { got++ }))

	send := func() {
		net.Send(&Packet{Size: 10, Src: Addr{a, 1}, Dst: Addr{b, 1}})
		sch.Run()
	}
	send()
	if aUp.Stats.Sent != 1 || aDown.Stats.Sent != 0 {
		t.Fatalf("initial route should use the upper path: up=%d down=%d", aUp.Stats.Sent, aDown.Stats.Sent)
	}

	// Degrade the upper path: the lower one must take over.
	aUp.SetDelay(100 * sim.Millisecond)
	send()
	if aUp.Stats.Sent != 1 || aDown.Stats.Sent != 1 {
		t.Fatalf("after SetDelay the lower path should win: up=%d down=%d", aUp.Stats.Sent, aDown.Stats.Sent)
	}

	// Restore it: traffic must flip back.
	aUp.SetDelay(5 * sim.Millisecond)
	send()
	if aUp.Stats.Sent != 2 || aDown.Stats.Sent != 1 {
		t.Fatalf("after restore the upper path should win again: up=%d down=%d", aUp.Stats.Sent, aDown.Stats.Sent)
	}
	if got != 3 {
		t.Fatalf("deliveries = %d, want 3", got)
	}
}

// TestSetDelayInvalidatesMcastTrees checks a delay mutation recompiles
// multicast trees — including the tree pointer cached on an in-flight
// packet, which must be refreshed at its next hop.
func TestSetDelayInvalidatesMcastTrees(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	src := net.AddNode("src")
	up := net.AddNode("up")
	down := net.AddNode("down")
	rcv := net.AddNode("rcv")
	net.AddDuplex(src, up, 0, 10*sim.Millisecond, 0)
	upRcv, _ := net.AddDuplex(up, rcv, 0, 10*sim.Millisecond, 0)
	net.AddDuplex(src, down, 0, 40*sim.Millisecond, 0)
	downRcv, _ := net.AddDuplex(down, rcv, 0, 10*sim.Millisecond, 0)
	c := mcastCounter(net, rcv)
	const g = GroupID(5)
	net.Join(g, rcv)

	sendMcast(net, src, g)
	if *c != 1 || upRcv.Stats.Sent != 1 {
		t.Fatalf("initial tree should run over up: c=%d up=%d", *c, upRcv.Stats.Sent)
	}

	// Degrade the src->up link; the compiled tree must be rebuilt through
	// down for the next send.
	net.LinkBetween(src, up).SetDelay(200 * sim.Millisecond)
	sendMcast(net, src, g)
	if *c != 2 || downRcv.Stats.Sent != 1 {
		t.Fatalf("tree not recompiled after SetDelay: c=%d down=%d", *c, downRcv.Stats.Sent)
	}

	// In-flight invalidation: launch a packet, mutate while it rides the
	// first hop, and check it still reaches the member via the refreshed
	// tree rather than a stale cached pointer.
	net.LinkBetween(src, up).SetDelay(10 * sim.Millisecond) // back over up
	net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
	sch.At(sch.Now()+5*sim.Millisecond, func() {
		net.LinkBetween(up, rcv).SetDelay(15 * sim.Millisecond)
	})
	sch.Run()
	if *c != 3 {
		t.Fatalf("mid-flight SetDelay lost the packet: c=%d", *c)
	}
}

// TestSetBandwidthAndLoss checks runtime bandwidth changes reshape
// serialisation for subsequent packets and SetLoss drops traffic, with
// no route invalidation in either case.
func TestSetBandwidthAndLoss(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	l, _ := net.AddDuplex(a, b, 1000, 0, 10) // 1000 B/s
	var arrivals []sim.Time
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { arrivals = append(arrivals, sch.Now()) }))

	net.Send(&Packet{Size: 1000, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.Run()
	if len(arrivals) != 1 || arrivals[0] != sim.Second {
		t.Fatalf("baseline serialisation wrong: %v", arrivals)
	}
	if !net.routesOK {
		t.Fatal("routes should be computed")
	}

	l.SetBandwidth(2000)
	if !net.routesOK {
		t.Fatal("SetBandwidth must not invalidate routes")
	}
	net.Send(&Packet{Size: 1000, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.Run()
	if len(arrivals) != 2 || arrivals[1] != arrivals[0]+sim.Second/2 {
		t.Fatalf("post-SetBandwidth serialisation wrong: %v", arrivals)
	}

	l.SetLoss(1)
	if !net.routesOK {
		t.Fatal("SetLoss must not invalidate routes")
	}
	net.Send(&Packet{Size: 1000, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.Run()
	if len(arrivals) != 2 || l.Stats.DropRand != 1 {
		t.Fatalf("SetLoss(1) should drop: arrivals=%d dropRand=%d", len(arrivals), l.Stats.DropRand)
	}
}

// TestResetAfterDelayMutation checks rewinds against runtime mutation: a
// run that mutated a delay (and thereby recomputed routes mid-run) must,
// after Reset + the identical construction sequence, route exactly like
// a fresh build — not like the mutated state — on the recycled links.
func TestResetAfterDelayMutation(t *testing.T) {
	build := func(net *Network) (aUp, aDown *Link, b NodeID) {
		a := net.AddNode("a")
		up := net.AddNode("up")
		down := net.AddNode("down")
		b = net.AddNode("b")
		aUp, _ = net.AddDuplex(a, up, 0, 5*sim.Millisecond, 0)
		net.AddDuplex(up, b, 0, 5*sim.Millisecond, 0)
		aDown, _ = net.AddDuplex(a, down, 0, 20*sim.Millisecond, 0)
		net.AddDuplex(down, b, 0, 5*sim.Millisecond, 0)
		return
	}
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	aUp, aDown, b := build(net)
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) {}))
	send := func() {
		net.Send(&Packet{Size: 10, Src: Addr{0, 1}, Dst: Addr{b, 1}})
		sch.Run()
	}
	send()                              // routes computed over up
	aUp.SetDelay(100 * sim.Millisecond) // run mutates; routes now over down
	send()
	if aDown.Stats.Sent != 1 {
		t.Fatalf("mutated run should route over down: %d", aDown.Stats.Sent)
	}

	// Rewind and rebuild the same construction. The rebuilt AddLink
	// recycles the mutated link and passes the original 5 ms; routes
	// computed before the rewind must not survive it.
	sch.Reset()
	net.Reset()
	aUp2, aDown2, b2 := build(net)
	if aUp2 != aUp || aDown2 != aDown {
		t.Fatal("the rebuild should recycle the previous run's links")
	}
	net.Bind(Addr{b2, 1}, HandlerFunc(func(*Packet) {}))
	send()
	if aUp.Stats.Sent != 1 || aDown.Stats.Sent != 0 {
		t.Fatalf("rewound run must route like a fresh build (up): up=%d down=%d",
			aUp.Stats.Sent, aDown.Stats.Sent)
	}
}

// TestTopologyVersionWraps runs the tree-invalidation sequence of
// TestSetDelayInvalidatesMcastTrees across the uint32 wrap of the
// topology version that expires cached multicast trees (the one-entry
// last-tree cache and the tree pointer on an in-flight packet): each
// mutation must still recompile the tree the next send uses. Unicast
// route rows are expired by routesOK, not by the version; the sends
// between mutations check them too.
func TestTopologyVersionWraps(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	src := net.AddNode("src")
	up := net.AddNode("up")
	down := net.AddNode("down")
	rcv := net.AddNode("rcv")
	net.AddDuplex(src, up, 0, 10*sim.Millisecond, 0)
	upRcv, _ := net.AddDuplex(up, rcv, 0, 10*sim.Millisecond, 0)
	net.AddDuplex(src, down, 0, 40*sim.Millisecond, 0)
	downRcv, _ := net.AddDuplex(down, rcv, 0, 10*sim.Millisecond, 0)
	c := mcastCounter(net, rcv)
	const g = GroupID(5)
	net.Join(g, rcv)
	net.topoVer = 1<<32 - 2

	sendMcast(net, src, g)
	uni := func() {
		net.Send(&Packet{Size: 10, Src: Addr{src, 2}, Dst: Addr{rcv, 1}})
		sch.Run()
	}
	uni()
	if *c != 2 || upRcv.Stats.Sent != 2 || net.lastVer != 1<<32-2 {
		t.Fatalf("initial tree and route should run over up: c=%d up=%d cached ver %d", *c, upRcv.Stats.Sent, net.lastVer)
	}
	net.LinkBetween(src, up).SetDelay(200 * sim.Millisecond) // version 2^32-1
	sendMcast(net, src, g)
	uni()
	if *c != 4 || downRcv.Stats.Sent != 2 {
		t.Fatalf("tree or route not recompiled before the wrap: c=%d down=%d", *c, downRcv.Stats.Sent)
	}
	net.LinkBetween(src, up).SetDelay(10 * sim.Millisecond) // version wraps to 0
	sendMcast(net, src, g)
	uni()
	if *c != 6 || upRcv.Stats.Sent != 4 || net.topoVer != 0 {
		t.Fatalf("tree or route not recompiled across the wrap: c=%d up=%d version %d", *c, upRcv.Stats.Sent, net.topoVer)
	}
	// In flight across the next bump: the packet's tree, stamped version
	// 0 at src, expires at its next hop, so it arrives stamped 1.
	stamp := uint32(1<<32 - 1)
	net.Bind(Addr{rcv, 1}, HandlerFunc(func(p *Packet) { *c++; stamp = p.treeVer }))
	net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
	sch.At(sch.Now()+5*sim.Millisecond, func() {
		net.LinkBetween(down, rcv).SetDelay(15 * sim.Millisecond) // version 1, off the packet's path
	})
	sch.Run()
	if *c != 7 || stamp != 1 {
		t.Fatalf("in-flight packet kept its stale tree: c=%d, arrived stamped version %d, want 1", *c, stamp)
	}
}
