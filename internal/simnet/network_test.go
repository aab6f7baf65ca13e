package simnet

import (
	"testing"

	"repro/internal/sim"
)

type collector struct {
	got []*Packet
	at  []sim.Time
	sch *sim.Scheduler
}

func (c *collector) Recv(pkt *Packet) {
	c.got = append(c.got, pkt)
	c.at = append(c.at, c.sch.Now())
}

func newNet() (*sim.Scheduler, *Network) {
	sch := sim.NewScheduler()
	return sch, New(sch, sim.NewRand(1))
}

func TestUnicastDelivery(t *testing.T) {
	sch, net := newNet()
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddDuplex(a, b, 1e6, 10*sim.Millisecond, 50)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	pkt := &Packet{Size: 1000, Src: Addr{a, 1}, Dst: Addr{b, 1}}
	net.Send(pkt)
	sch.Run()
	if len(c.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.got))
	}
	// 1000 bytes at 1e6 B/s = 1ms serialisation + 10ms propagation.
	if want := 11 * sim.Millisecond; c.at[0] != want {
		t.Fatalf("arrival at %v, want %v", c.at[0], want)
	}
}

func TestMultiHopRouting(t *testing.T) {
	sch, net := newNet()
	a := net.AddNode("a")
	r := net.AddNode("r")
	b := net.AddNode("b")
	net.AddDuplex(a, r, 0, 5*sim.Millisecond, 0)
	net.AddDuplex(r, b, 0, 5*sim.Millisecond, 0)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 7}, c)
	net.Send(&Packet{Size: 100, Src: Addr{a, 7}, Dst: Addr{b, 7}})
	sch.Run()
	if len(c.got) != 1 || c.at[0] != 10*sim.Millisecond {
		t.Fatalf("got %d arrivals at %v", len(c.got), c.at)
	}
}

func TestShortestPathPreferred(t *testing.T) {
	// a -> b directly (20ms) vs a -> r -> b (5+5ms): must take the relay.
	sch, net := newNet()
	a, r, b := net.AddNode("a"), net.AddNode("r"), net.AddNode("b")
	net.AddLink(a, b, 0, 20*sim.Millisecond, 0)
	net.AddLink(a, r, 0, 5*sim.Millisecond, 0)
	net.AddLink(r, b, 0, 5*sim.Millisecond, 0)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.Run()
	if c.at[0] != 10*sim.Millisecond {
		t.Fatalf("took slow path: arrival %v", c.at[0])
	}
}

func TestQueueingDelayAndDrops(t *testing.T) {
	sch, net := newNet()
	a, b := net.AddNode("a"), net.AddNode("b")
	l, _ := net.AddDuplex(a, b, 1e5, sim.Millisecond, 5) // 10ms per 1000B pkt
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	// Burst of 10 packets: 1 in flight + 5 queued = 6 delivered, 4 dropped.
	for i := 0; i < 10; i++ {
		net.Send(&Packet{Size: 1000, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	}
	sch.Run()
	if len(c.got) != 6 {
		t.Fatalf("delivered %d, want 6", len(c.got))
	}
	if l.Stats.DropQ != 4 {
		t.Fatalf("queue drops = %d, want 4", l.Stats.DropQ)
	}
	// Back-to-back serialisation: arrivals 10ms apart starting at 11ms.
	for i, at := range c.at {
		want := sim.Time(i+1)*10*sim.Millisecond + sim.Millisecond
		if at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
}

func TestRandomLossModule(t *testing.T) {
	sch, net := newNet()
	a, b := net.AddNode("a"), net.AddNode("b")
	l, _ := net.AddDuplex(a, b, 0, sim.Millisecond, 0)
	l.LossProb = 0.5
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	const n = 10000
	for i := 0; i < n; i++ {
		net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	}
	sch.Run()
	frac := float64(len(c.got)) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("delivered fraction %v, want ~0.5", frac)
	}
	if l.Stats.DropRand+int64(len(c.got)) != n {
		t.Fatal("drops + deliveries should equal sends")
	}
}

func TestMulticastStarDelivery(t *testing.T) {
	sch, net := newNet()
	src := net.AddNode("src")
	hub := net.AddNode("hub")
	net.AddDuplex(src, hub, 0, sim.Millisecond, 0)
	const g = GroupID(1)
	recvs := make([]*collector, 5)
	for i := range recvs {
		r := net.AddNode("r")
		net.AddDuplex(hub, r, 0, sim.Time(i+1)*sim.Millisecond, 0)
		recvs[i] = &collector{sch: sch}
		net.Bind(Addr{r, 9}, recvs[i])
		net.Join(g, r)
	}
	net.Send(&Packet{Size: 100, Src: Addr{src, 9}, Dst: Addr{Port: 9}, Group: g, IsMcast: true})
	sch.Run()
	for i, c := range recvs {
		if len(c.got) != 1 {
			t.Fatalf("receiver %d got %d packets", i, len(c.got))
		}
		want := sim.Millisecond + sim.Time(i+1)*sim.Millisecond
		if c.at[0] != want {
			t.Fatalf("receiver %d arrival %v, want %v", i, c.at[0], want)
		}
	}
}

func TestMulticastSharedLinkSendsOnce(t *testing.T) {
	// src -> hub carries ONE copy regardless of member count.
	sch, net := newNet()
	src := net.AddNode("src")
	hub := net.AddNode("hub")
	up, _ := net.AddDuplex(src, hub, 0, sim.Millisecond, 0)
	const g = GroupID(2)
	for i := 0; i < 10; i++ {
		r := net.AddNode("r")
		net.AddDuplex(hub, r, 0, sim.Millisecond, 0)
		net.Join(g, r)
	}
	net.Send(&Packet{Size: 100, Src: Addr{src, 9}, Dst: Addr{Port: 9}, Group: g, IsMcast: true})
	sch.Run()
	if up.Stats.Sent != 1 {
		t.Fatalf("shared link carried %d copies, want 1", up.Stats.Sent)
	}
}

func TestTreeCorrelatedLossStructure(t *testing.T) {
	// Two-level binary tree: every link carries one copy per packet, and a
	// drop on a top-level link takes out its entire subtree at once.
	sch, net := newNet()
	root := net.AddNode("root")
	var top, all []*Link
	var leaves []NodeID
	for i := 0; i < 2; i++ {
		mid := net.AddNode("mid")
		down, _ := net.AddDuplex(root, mid, 0, sim.Millisecond, 0)
		top = append(top, down)
		all = append(all, down)
		for j := 0; j < 2; j++ {
			leaf := net.AddNode("leaf")
			down, _ := net.AddDuplex(mid, leaf, 0, sim.Millisecond, 0)
			all = append(all, down)
			leaves = append(leaves, leaf)
			net.Join(1, leaf)
		}
	}
	per := make(map[NodeID]int)
	for _, leaf := range leaves {
		leaf := leaf
		net.Bind(Addr{leaf, 1}, HandlerFunc(func(*Packet) { per[leaf]++ }))
	}
	send := func() {
		net.Send(&Packet{Size: 100, Src: Addr{root, 1}, Dst: Addr{Port: 1}, Group: 1, IsMcast: true})
		sch.Run()
	}
	send()
	for i, l := range all {
		if l.Stats.Sent != 1 {
			t.Fatalf("tree link %d carried %d copies, want 1", i, l.Stats.Sent)
		}
	}
	top[0].LossProb = 1 // kill the first top-level branch
	send()
	// Leaves 0,1 are under the dead branch; 2,3 under the live one.
	if per[leaves[0]] != 1 || per[leaves[1]] != 1 {
		t.Fatal("dead subtree received packets")
	}
	if per[leaves[2]] != 2 || per[leaves[3]] != 2 {
		t.Fatal("live subtree missed packets")
	}
}

func TestMulticastJoinLeave(t *testing.T) {
	sch, net := newNet()
	src := net.AddNode("src")
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	net.AddDuplex(src, r1, 0, sim.Millisecond, 0)
	net.AddDuplex(src, r2, 0, sim.Millisecond, 0)
	const g = GroupID(3)
	c1, c2 := &collector{sch: sch}, &collector{sch: sch}
	net.Bind(Addr{r1, 1}, c1)
	net.Bind(Addr{r2, 1}, c2)
	net.Join(g, r1)
	send := func() {
		net.Send(&Packet{Size: 10, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
	}
	send()
	sch.Run()
	net.Join(g, r2)
	send()
	sch.Run()
	net.Leave(g, r1)
	send()
	sch.Run()
	if len(c1.got) != 2 {
		t.Fatalf("r1 got %d, want 2", len(c1.got))
	}
	if len(c2.got) != 2 {
		t.Fatalf("r2 got %d, want 2", len(c2.got))
	}
	if net.Members(g) != 1 || !net.IsMember(g, r2) || net.IsMember(g, r1) {
		t.Fatal("membership bookkeeping wrong")
	}
}

func TestInfiniteBandwidthLinkSkipsQueue(t *testing.T) {
	sch, net := newNet()
	a, b := net.AddNode("a"), net.AddNode("b")
	net.AddDuplex(a, b, 0, 2*sim.Millisecond, 0)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	for i := 0; i < 100; i++ {
		net.Send(&Packet{Size: 1 << 20, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	}
	sch.Run()
	if len(c.got) != 100 {
		t.Fatalf("infinite link dropped packets: %d", len(c.got))
	}
	for _, at := range c.at {
		if at != 2*sim.Millisecond {
			t.Fatalf("arrival %v, want pure delay 2ms", at)
		}
	}
}

func TestNoRouteIsCountedDrop(t *testing.T) {
	sch, net := newNet()
	a := net.AddNode("a")
	net.AddNode("b")
	net.Send(&Packet{Size: 1, Src: Addr{a, 1}, Dst: Addr{1, 1}})
	sch.Run()
	if got := net.Faults().Unreachable; got != 1 {
		t.Fatalf("unreachable drops = %d, want 1", got)
	}
}

func TestDropHookObservesCongestionDrops(t *testing.T) {
	sch, net := newNet()
	a, b := net.AddNode("a"), net.AddNode("b")
	net.AddDuplex(a, b, 1e5, sim.Millisecond, 1)
	drops := 0
	net.DropHook = func(l *Link, pkt *Packet) { drops++ }
	for i := 0; i < 5; i++ {
		net.Send(&Packet{Size: 1000, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	}
	sch.Run()
	if drops != 3 {
		t.Fatalf("hook saw %d drops, want 3", drops)
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []sim.Time {
		sch, net := newNet()
		src := net.AddNode("src")
		hub := net.AddNode("hub")
		net.AddDuplex(src, hub, 1e6, sim.Millisecond, 20)
		const g = GroupID(1)
		var ats []sim.Time
		for i := 0; i < 20; i++ {
			r := net.AddNode("r")
			l, _ := net.AddDuplex(hub, r, 1e5, sim.Time(i)*sim.Millisecond, 10)
			l.LossProb = 0.1
			net.Bind(Addr{r, 1}, HandlerFunc(func(pkt *Packet) {
				ats = append(ats, sch.Now())
			}))
			net.Join(g, r)
		}
		for i := 0; i < 50; i++ {
			sch.After(sim.Time(i)*10*sim.Millisecond, func() {
				net.Send(&Packet{Size: 1000, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
			})
		}
		sch.Run()
		return ats
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPacketSentAtStamp(t *testing.T) {
	sch, net := newNet()
	a, b := net.AddNode("a"), net.AddNode("b")
	net.AddDuplex(a, b, 0, sim.Millisecond, 0)
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) {}))
	pkt := &Packet{Size: 1, Src: Addr{a, 1}, Dst: Addr{b, 1}}
	sch.After(3*sim.Second, func() { net.Send(pkt) })
	sch.Run()
	if pkt.SentAt != 3*sim.Second {
		t.Fatalf("SentAt = %v, want 3s", pkt.SentAt)
	}
}

func TestLinkStatsAccounting(t *testing.T) {
	sch, net := newNet()
	a, b := net.AddNode("a"), net.AddNode("b")
	l, _ := net.AddDuplex(a, b, 1e6, sim.Millisecond, 2)
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) {}))
	for i := 0; i < 6; i++ {
		net.Send(&Packet{Size: 500, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	}
	sch.Run()
	if l.Stats.Sent != 6 {
		t.Fatalf("Sent = %d", l.Stats.Sent)
	}
	if l.Stats.Deliver+l.Stats.DropQ != 6 {
		t.Fatalf("deliver %d + dropQ %d != 6", l.Stats.Deliver, l.Stats.DropQ)
	}
	if l.Stats.Bytes != l.Stats.Deliver*500 {
		t.Fatalf("byte accounting wrong: %d", l.Stats.Bytes)
	}
}

func TestNodeNames(t *testing.T) {
	_, net := newNet()
	id := net.AddNode("gateway")
	if net.NodeName(id) != "gateway" || net.NumNodes() != 1 {
		t.Fatal("node bookkeeping wrong")
	}
}
