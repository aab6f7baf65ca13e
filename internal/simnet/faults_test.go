package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// impairedRun sends 200 packets over one link with corruption,
// duplication and reordering armed, burst of them at each millisecond
// (same-instant sends tie and queue behind each other), and returns the
// arrival-time trace, the link's fault stats and the network, for
// determinism comparisons.
func impairedRun(seed int64, burst int) (string, LinkStats, *Network) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(seed))
	a, b := net.AddNode("a"), net.AddNode("b")
	l, _ := net.AddDuplex(a, b, 1e6, 5*sim.Millisecond, 50)
	l.SetImpairments(0.1, 0.1, 0.3, 20*sim.Millisecond)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	for i := 0; i < 200; i++ {
		sch.At(sim.Time(i/burst)*sim.Millisecond, func() {
			net.Send(&Packet{Size: 500, Src: Addr{a, 1}, Dst: Addr{b, 1}})
		})
	}
	sch.Run()
	trace := ""
	for _, at := range c.at {
		trace += fmt.Sprintf("%d\n", at)
	}
	return trace, l.Stats, net
}

// TestImpairmentDeterminism: for a fixed seed the corruption, duplication
// and reordering draws — and therefore the delivery trace — are exactly
// reproducible, and the modules genuinely fire.
func TestImpairmentDeterminism(t *testing.T) {
	trace1, stats1, _ := impairedRun(7, 1)
	trace2, stats2, _ := impairedRun(7, 1)
	if trace1 != trace2 {
		t.Fatal("same seed produced different delivery traces")
	}
	if stats1 != stats2 {
		t.Fatalf("same seed produced different link stats: %+v vs %+v", stats1, stats2)
	}
	if stats1.Corrupted == 0 || stats1.Duplicated == 0 || stats1.Reordered == 0 {
		t.Fatalf("impairment modules never fired: %+v", stats1)
	}
	other, _, _ := impairedRun(8, 1)
	if trace1 == other {
		t.Fatal("different seeds produced identical impairment draws")
	}
}

// TestImpairedDeliveryBatchIdentity: bursts of three same-instant sends
// over the impaired link deliver the same trace with the same fault draws
// run to run, and drain the packet pool.
func TestImpairedDeliveryBatchIdentity(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		trace, stats, net := impairedRun(seed, 3)
		again, againStats, _ := impairedRun(seed, 3)
		if trace != again || stats != againStats {
			t.Fatalf("seed %d: two runs differ: stats %+v vs %+v", seed, stats, againStats)
		}
		if stats.Corrupted == 0 || stats.Duplicated == 0 || stats.Reordered == 0 {
			t.Fatalf("seed %d: impairment modules never fired: %+v", seed, stats)
		}
		if live := net.LivePackets(); live != 0 {
			t.Fatalf("seed %d: pool conservation broken: %d packets live", seed, live)
		}
	}
}

// TestImpairedPoolConservation: every fault path — corruption drops and
// duplicate copies alike — must balance the packet pool back to zero
// live packets once traffic drains.
func TestImpairedPoolConservation(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(3))
	a, b := net.AddNode("a"), net.AddNode("b")
	l, _ := net.AddDuplex(a, b, 1e6, 5*sim.Millisecond, 500)
	l.SetImpairments(0.3, 0.5, 0, 0)
	delivered := 0
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { delivered++ }))
	const n = 1000
	for i := 0; i < n; i++ {
		sch.At(sim.Time(i)*sim.Millisecond, func() {
			net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
		})
	}
	sch.Run()
	if want := n - int(l.Stats.Corrupted) + int(l.Stats.Duplicated); delivered != want {
		t.Fatalf("delivered %d, want %d (corrupted %d, duplicated %d)",
			delivered, want, l.Stats.Corrupted, l.Stats.Duplicated)
	}
	if net.LivePackets() != 0 {
		t.Fatalf("pool conservation broken: %d packets still live", net.LivePackets())
	}
}

// TestPartitionUnreachableCounted: severing the only path between two
// nodes turns unicast sends into counted Unreachable drops (no panic, no
// delivery); healing restores delivery without a rebuild.
func TestPartitionUnreachableCounted(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	a, b := net.AddNode("a"), net.AddNode("b")
	down, up := net.AddDuplex(a, b, 0, 5*sim.Millisecond, 0)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	send := func() {
		net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
		sch.Run()
	}
	send()
	if len(c.got) != 1 {
		t.Fatalf("healthy delivery failed: %d", len(c.got))
	}
	down.SetDown(true)
	up.SetDown(true)
	send()
	send()
	if len(c.got) != 1 {
		t.Fatal("partitioned packet was delivered")
	}
	if f := net.Faults(); f.Unreachable != 2 {
		t.Fatalf("Unreachable = %d, want 2", f.Unreachable)
	}
	if net.LivePackets() != 0 {
		t.Fatalf("unreachable drops leaked %d packets", net.LivePackets())
	}
	down.SetDown(false)
	up.SetDown(false)
	send()
	if len(c.got) != 2 {
		t.Fatal("healed path did not deliver")
	}
}

// TestMulticastPartitionCountsUnreachableMember: a down edge inside a
// compiled multicast tree drops only the severed member's copy — counted
// as Unreachable — while the rest of the tree keeps delivering.
func TestMulticastPartitionCountsUnreachableMember(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	src, r := net.AddNode("src"), net.AddNode("r")
	m1, m2 := net.AddNode("m1"), net.AddNode("m2")
	net.AddDuplex(src, r, 0, 5*sim.Millisecond, 0)
	net.AddDuplex(r, m1, 0, 5*sim.Millisecond, 0)
	toM2, _ := net.AddDuplex(r, m2, 0, 5*sim.Millisecond, 0)
	got1, got2 := 0, 0
	net.Bind(Addr{m1, 1}, HandlerFunc(func(*Packet) { got1++ }))
	net.Bind(Addr{m2, 1}, HandlerFunc(func(*Packet) { got2++ }))
	const g = GroupID(9)
	net.Join(g, m1)
	net.Join(g, m2)
	send := func() {
		net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Dst: Addr{Port: 1}, Group: g, IsMcast: true})
		sch.Run()
	}
	send()
	if got1 != 1 || got2 != 1 {
		t.Fatalf("healthy tree delivery wrong: m1=%d m2=%d", got1, got2)
	}
	toM2.SetDown(true)
	send()
	if got1 != 2 || got2 != 1 {
		t.Fatalf("partitioned tree delivery wrong: m1=%d m2=%d", got1, got2)
	}
	if f := net.Faults(); f.Unreachable == 0 {
		t.Fatal("severed member not counted as Unreachable")
	}
	toM2.SetDown(false)
	send()
	if got1 != 3 || got2 != 2 {
		t.Fatalf("healed tree delivery wrong: m1=%d m2=%d", got1, got2)
	}
	if net.LivePackets() != 0 {
		t.Fatalf("mcast fault paths leaked %d packets", net.LivePackets())
	}
}

// TestRouteRederivationAfterLinkUp: taking the fast path down reroutes
// traffic over the slow one; bringing it back up must re-derive routes to
// the fast path again (the LinkUp half of the scenario verbs).
func TestRouteRederivationAfterLinkUp(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	fast := net.AddNode("fast")
	slow := net.AddNode("slow")
	b := net.AddNode("b")
	aFast, _ := net.AddDuplex(a, fast, 0, 5*sim.Millisecond, 0)
	net.AddDuplex(fast, b, 0, 5*sim.Millisecond, 0)
	aSlow, _ := net.AddDuplex(a, slow, 0, 20*sim.Millisecond, 0)
	net.AddDuplex(slow, b, 0, 5*sim.Millisecond, 0)
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) {}))
	send := func() {
		net.Send(&Packet{Size: 10, Src: Addr{a, 1}, Dst: Addr{b, 1}})
		sch.Run()
	}
	send()
	if aFast.Stats.Sent != 1 || aSlow.Stats.Sent != 0 {
		t.Fatalf("initial route not over fast: fast=%d slow=%d", aFast.Stats.Sent, aSlow.Stats.Sent)
	}
	aFast.SetDown(true)
	send()
	if aFast.Stats.Sent != 1 || aSlow.Stats.Sent != 1 {
		t.Fatalf("down link still routed: fast=%d slow=%d", aFast.Stats.Sent, aSlow.Stats.Sent)
	}
	aFast.SetDown(false)
	send()
	if aFast.Stats.Sent != 2 || aSlow.Stats.Sent != 1 {
		t.Fatalf("LinkUp did not re-derive routes: fast=%d slow=%d", aFast.Stats.Sent, aSlow.Stats.Sent)
	}
}

// TestImpairedRewindVsFresh extends the arena-rewind discipline to the
// fault layer: a rewound network rebuilding the same construction and
// impairment sequence must reproduce a fresh network's delivery trace
// byte for byte, and the rewind itself must clear leftover impairments.
func TestImpairedRewindVsFresh(t *testing.T) {
	run := func(sch *sim.Scheduler, net *Network, impair bool) string {
		a, b := net.AddNode("a"), net.AddNode("b")
		l, _ := net.AddDuplex(a, b, 1e6, 5*sim.Millisecond, 50)
		if impair {
			l.SetImpairments(0.1, 0.1, 0.2, 15*sim.Millisecond)
		}
		c := &collector{sch: sch}
		net.Bind(Addr{b, 1}, c)
		for i := 0; i < 150; i++ {
			sch.At(sim.Time(i)*sim.Millisecond, func() {
				net.Send(&Packet{Size: 400, Src: Addr{a, 1}, Dst: Addr{b, 1}})
			})
		}
		sch.Run()
		trace := ""
		for _, at := range c.at {
			trace += fmt.Sprintf("%d\n", at)
		}
		return trace
	}
	fresh := func(impair bool) string {
		sch := sim.NewScheduler()
		return run(sch, New(sch, sim.NewRand(5)), impair)
	}

	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(5))
	if got := run(sch, net, true); got != fresh(true) {
		t.Fatal("first impaired run differs from fresh baseline")
	}
	sch.Reset()
	net.rng.Reseed(5)
	net.Reset()
	if got := run(sch, net, true); got != fresh(true) {
		t.Fatal("rewound impaired run differs from fresh network")
	}
	// A rewind must not leak the previous run's impairments into a run
	// that never sets any.
	sch.Reset()
	net.rng.Reseed(5)
	net.Reset()
	if got := run(sch, net, false); got != fresh(false) {
		t.Fatal("rewind leaked impairments into a healthy run")
	}
}
