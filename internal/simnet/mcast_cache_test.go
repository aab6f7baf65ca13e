package simnet

import (
	"testing"

	"repro/internal/sim"
)

// mcastCounter binds a delivery counter to port 1 of a node.
func mcastCounter(net *Network, id NodeID) *int {
	n := new(int)
	net.Bind(Addr{id, 1}, HandlerFunc(func(*Packet) { *n++ }))
	return n
}

func sendMcast(net *Network, src NodeID, g GroupID) {
	net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
	net.Scheduler().Run()
}

// TestMcastTreeRebuildInterleaved interleaves Join/Leave/AddLink and
// checks multicast trees and routes are rebuilt correctly at each step —
// the Join/Leave/AddLink tree retirement interplay.
func TestMcastTreeRebuildInterleaved(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	src := net.AddNode("src")
	hub := net.AddNode("hub")
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddDuplex(src, hub, 0, sim.Millisecond, 0)
	net.AddDuplex(hub, a, 0, sim.Millisecond, 0)
	net.AddDuplex(hub, b, 0, sim.Millisecond, 0)
	ca, cb := mcastCounter(net, a), mcastCounter(net, b)
	const g = GroupID(7)

	net.Join(g, a)
	sendMcast(net, src, g)
	if *ca != 1 || *cb != 0 {
		t.Fatalf("after Join(a): a=%d b=%d, want 1,0", *ca, *cb)
	}

	// Join b mid-session: the cached (g, src) tree must be invalidated.
	net.Join(g, b)
	sendMcast(net, src, g)
	if *ca != 2 || *cb != 1 {
		t.Fatalf("after Join(b): a=%d b=%d, want 2,1", *ca, *cb)
	}

	// Leave a: it must stop receiving even though the tree was cached.
	net.Leave(g, a)
	sendMcast(net, src, g)
	if *ca != 2 || *cb != 2 {
		t.Fatalf("after Leave(a): a=%d b=%d, want 2,2", *ca, *cb)
	}

	// AddLink a brand-new member behind a new node: AddLink must flush
	// every cached tree and the route table.
	c := net.AddNode("c")
	net.AddDuplex(hub, c, 0, sim.Millisecond, 0)
	cc := mcastCounter(net, c)
	net.Join(g, c)
	sendMcast(net, src, g)
	if *ca != 2 || *cb != 3 || *cc != 1 {
		t.Fatalf("after AddLink+Join(c): a=%d b=%d c=%d, want 2,3,1", *ca, *cb, *cc)
	}

	// Rejoin a after the topology change.
	net.Join(g, a)
	sendMcast(net, src, g)
	if *ca != 3 || *cb != 4 || *cc != 2 {
		t.Fatalf("after rejoin(a): a=%d b=%d c=%d, want 3,4,2", *ca, *cb, *cc)
	}
}

// TestRoutesRebuildAfterAddLink checks a shortcut link added after routes
// were computed (and used) is picked up by later unicast traffic.
func TestRoutesRebuildAfterAddLink(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	m := net.AddNode("m")
	b := net.AddNode("b")
	net.AddDuplex(a, m, 0, 10*sim.Millisecond, 0)
	net.AddDuplex(m, b, 0, 10*sim.Millisecond, 0)
	got := 0
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { got++ }))

	net.Send(&Packet{Size: 10, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.Run()
	viaM := net.LinkBetween(a, m).Stats.Sent
	if got != 1 || viaM != 1 {
		t.Fatalf("first send: got=%d viaM=%d", got, viaM)
	}

	// A direct link with lower total delay must win after the rebuild.
	direct := net.AddLink(a, b, 0, sim.Millisecond, 0)
	net.Send(&Packet{Size: 10, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.Run()
	if got != 2 {
		t.Fatalf("second send not delivered")
	}
	if direct.Stats.Sent != 1 {
		t.Fatalf("direct link unused after AddLink: sent=%d", direct.Stats.Sent)
	}
	if net.LinkBetween(a, m).Stats.Sent != viaM {
		t.Fatalf("old path still used after shortcut appeared")
	}
}

// TestLateJoinMidFlight reproduces the latejoin.go pattern at packet
// level: receivers join while multicast data is in flight, so the
// in-flight packet's cached tree must be refreshed at the next hop.
func TestLateJoinMidFlight(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	src := net.AddNode("src")
	hub := net.AddNode("hub")
	early := net.AddNode("early")
	late := net.AddNode("late")
	net.AddDuplex(src, hub, 0, 10*sim.Millisecond, 0)
	net.AddDuplex(hub, early, 0, 10*sim.Millisecond, 0)
	net.AddDuplex(hub, late, 0, 10*sim.Millisecond, 0)
	ce, cl := mcastCounter(net, early), mcastCounter(net, late)
	const g = GroupID(1)
	net.Join(g, early)

	// Send at t=0; the packet reaches hub at t=10ms. Join `late` at t=5ms,
	// while the packet is still on the src->hub link: the hub must forward
	// to both members (this matches the old per-hop tree lookup).
	net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
	sch.At(5*sim.Millisecond, func() { net.Join(g, late) })
	sch.Run()
	if *ce != 1 || *cl != 1 {
		t.Fatalf("mid-flight join: early=%d late=%d, want 1,1", *ce, *cl)
	}

	// Symmetrically, a mid-flight Leave must prune the delivery.
	net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
	sch.At(sch.Now()+5*sim.Millisecond, func() { net.Leave(g, late) })
	sch.Run()
	if *ce != 2 || *cl != 1 {
		t.Fatalf("mid-flight leave: early=%d late=%d, want 2,1", *ce, *cl)
	}
}

// TestPacketPoolRecycle checks AllocPacket packets return to the free
// list after the final delivery, including multicast fan-out with drops,
// and that composite-literal packets are never recycled.
func TestPacketPoolRecycle(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	src := net.AddNode("src")
	hub := net.AddNode("hub")
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	net.AddDuplex(src, hub, 0, sim.Millisecond, 0)
	net.AddDuplex(hub, r1, 0, sim.Millisecond, 0)
	lossy, _ := net.AddDuplex(hub, r2, 0, sim.Millisecond, 0)
	lossy.LossProb = 1 // every r2 copy is dropped
	mcastCounter(net, r1)
	mcastCounter(net, r2)
	const g = GroupID(3)
	net.Join(g, r1)
	net.Join(g, r2)

	p := net.AllocPacket()
	p.Size = 100
	p.Src = Addr{src, 1}
	p.Dst = Addr{Port: 1}
	p.Group = g
	p.IsMcast = true
	net.Send(p)
	sch.Run()
	if len(net.freePkts[0]) != 1 {
		t.Fatalf("pooled packet not recycled: free list has %d", len(net.freePkts[0]))
	}
	if q := net.AllocPacket(); q != p {
		t.Fatal("AllocPacket should reuse the recycled packet")
	} else if q.Payload != nil || q.refs != 0 || !q.pooled {
		t.Fatalf("recycled packet not reset: %+v", q)
	}

	// Unpooled packets flow through the same refcounting but are never
	// added to the free list.
	net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Dst: Addr{r1, 1}})
	sch.Run()
	if len(net.freePkts[0]) != 0 {
		t.Fatalf("unpooled packet recycled: free list has %d", len(net.freePkts[0]))
	}
}

// TestRetiredTreeStorageReused: a membership change retires the compiled
// tree, and the next compilation reuses its storage and allocates
// nothing. A packet in flight across the change still holds the retired
// tree, under a version that no longer matches, so it forwards on the
// recompiled one.
func TestRetiredTreeStorageReused(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	src := net.AddNode("src")
	hub := net.AddNode("hub")
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddDuplex(src, hub, 0, 10*sim.Millisecond, 0)
	net.AddDuplex(hub, a, 0, 10*sim.Millisecond, 0)
	net.AddDuplex(hub, b, 0, 10*sim.Millisecond, 0)
	ca, cb := mcastCounter(net, a), mcastCounter(net, b)
	const g = GroupID(1)
	net.Join(g, a)
	first := net.mcastTree(g, src)

	// b joins while the packet is on src->hub: the hub forwards it on the
	// tree compiled into first's storage, which includes b.
	net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
	sch.At(5*sim.Millisecond, func() { net.Join(g, b) })
	sch.Run()
	if *ca != 1 || *cb != 1 {
		t.Fatalf("mid-flight join: a=%d b=%d, want 1,1", *ca, *cb)
	}
	if got := net.mcastTree(g, src); got != first {
		t.Fatal("the recompiled tree did not reuse the retired tree's storage")
	}
	if n := len(net.trees); n != 1 {
		t.Fatalf("%d compiled trees, want 1", n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		net.Leave(g, b)
		net.mcastTree(g, src)
		net.Join(g, b)
		net.mcastTree(g, src)
	})
	if allocs != 0 {
		t.Fatalf("recompiling a retired tree allocates %.1f/op, want 0", allocs)
	}
}
