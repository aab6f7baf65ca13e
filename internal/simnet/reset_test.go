package simnet

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// runScenario builds a small lossy multi-hop topology on net, pushes a
// deterministic traffic mix through it (unicast and multicast, enough to
// queue, drop and fan out), and returns a transcript of every delivery
// and the final per-link counters. Identical transcripts mean identical
// runs, event for event.
func runScenario(sch *sim.Scheduler, net *Network, extraLeaf bool) string {
	a := net.AddNode("a")
	r := net.AddNode("r")
	b := net.AddNode("b")
	l1, _ := net.AddDuplex(a, r, 1e5, 5*sim.Millisecond, 4)
	net.AddDuplex(r, b, 1e5, 5*sim.Millisecond, 4)
	leaves := []NodeID{b}
	if extraLeaf {
		c := net.AddNode("c")
		net.AddDuplex(r, c, 0, 2*sim.Millisecond, 0)
		leaves = append(leaves, c)
	}
	l1.LossProb = 0.2

	var out []string
	for i, leaf := range leaves {
		leaf := leaf
		i := i
		net.Bind(Addr{leaf, 1}, HandlerFunc(func(pkt *Packet) {
			out = append(out, fmt.Sprintf("leaf%d %v size=%d", i, sch.Now(), pkt.Size))
		}))
		net.Join(1, leaf)
	}
	for i := 0; i < 40; i++ {
		i := i
		sch.At(sim.Time(i)*sim.Millisecond, func() {
			pkt := net.AllocPacket()
			pkt.Size = 500 + 10*i
			pkt.Src = Addr{a, 1}
			if i%3 == 0 {
				pkt.IsMcast = true
				pkt.Group = 1
			} else {
				pkt.Dst = Addr{leaves[i%len(leaves)], 1}
			}
			net.Send(pkt)
		})
	}
	sch.Run()
	for _, l := range net.Links() {
		out = append(out, fmt.Sprintf("link %d->%d %+v", l.From, l.To, l.Stats))
	}
	return fmt.Sprint(out)
}

// TestResetReproducesFreshRun is the arena-reuse determinism contract:
// Reset + identical rebuild must reproduce the fresh-build run bit for
// bit, including loss-module draws, queue drops and multicast fan-out.
func TestResetReproducesFreshRun(t *testing.T) {
	sch := sim.NewScheduler()
	rng := sim.NewRand(7)
	net := New(sch, rng)
	fresh := runScenario(sch, net, false)

	for rerun := 0; rerun < 3; rerun++ {
		sch.Reset()
		net.Reset()
		rng.Reseed(7)
		if got := runScenario(sch, net, false); got != fresh {
			t.Fatalf("rerun %d diverged from fresh run:\n%s\nvs\n%s", rerun, got, fresh)
		}
	}
}

// TestResetDivergentRebuild changes the topology after a Reset: the
// rebuild, on recycled storage, must behave exactly like a network that
// never saw the first scenario.
func TestResetDivergentRebuild(t *testing.T) {
	sch := sim.NewScheduler()
	rng := sim.NewRand(7)
	net := New(sch, rng)
	runScenario(sch, net, false)

	sch.Reset()
	net.Reset()
	rng.Reseed(7)
	got := runScenario(sch, net, true) // diverges: one extra leaf

	sch2 := sim.NewScheduler()
	net2 := New(sch2, sim.NewRand(7))
	want := runScenario(sch2, net2, true)
	if got != want {
		t.Fatalf("divergent rebuild differs from fresh network:\n%s\nvs\n%s", got, want)
	}
}

// TestResetPrefixTruncation reruns a *smaller* scenario on a rewound
// network: the node slots and links the bigger run left past the rebuilt
// ones must not influence routing or stats.
func TestResetPrefixTruncation(t *testing.T) {
	sch := sim.NewScheduler()
	rng := sim.NewRand(7)
	net := New(sch, rng)
	runScenario(sch, net, true) // big run first

	// Two rewinds: the first rebuilds a strict prefix (small scenario) with
	// recycled storage left over past it, the second rebuilds it again.
	for rerun := 0; rerun < 2; rerun++ {
		sch.Reset()
		net.Reset()
		rng.Reseed(7)
		got := runScenario(sch, net, false)
		sch2 := sim.NewScheduler()
		net2 := New(sch2, sim.NewRand(7))
		want := runScenario(sch2, net2, false)
		if got != want {
			t.Fatalf("rerun %d with prefix topology differs from fresh:\n%s\nvs\n%s", rerun, got, want)
		}
	}
}

// TestResetAfterOverwrite: a run that replaces a link (same endpoints
// twice) rewinds like any other, and a rebuild that overwrites again
// reproduces a fresh network's transcript.
func TestResetAfterOverwrite(t *testing.T) {
	run := func(sch *sim.Scheduler, net *Network) string {
		a, r, b := net.AddNode("a"), net.AddNode("r"), net.AddNode("b")
		net.AddDuplex(a, r, 1e5, 5*sim.Millisecond, 4)
		net.AddLink(r, b, 1e5, 5*sim.Millisecond, 4)
		net.AddLink(r, b, 0, 2*sim.Millisecond, 0) // replaces r->b
		c := &collector{sch: sch}
		net.Bind(Addr{b, 1}, c)
		for i := 0; i < 10; i++ {
			sch.At(sim.Time(i)*sim.Millisecond, func() {
				net.Send(&Packet{Size: 500, Src: Addr{a, 1}, Dst: Addr{b, 1}})
			})
		}
		sch.Run()
		out := fmt.Sprint(c.at)
		for _, l := range net.Links() {
			out += fmt.Sprintf(" %d->%d %+v", l.From, l.To, l.Stats)
		}
		return out
	}
	sch2 := sim.NewScheduler()
	want := run(sch2, New(sch2, sim.NewRand(1)))
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	run(sch, net)
	for rerun := 0; rerun < 2; rerun++ {
		sch.Reset()
		net.Reset()
		if got := run(sch, net); got != want {
			t.Fatalf("rerun %d after an overwrite differs from fresh:\n%s\nvs\n%s", rerun, got, want)
		}
	}
}

// TestReplayAddLinkNewDelay: a rewound AddLink with a different delay must
// invalidate routes so forwarding follows the new shortest paths.
func TestReplayAddLinkNewDelay(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	build := func(direct sim.Time) (NodeID, NodeID) {
		a, r, b := net.AddNode("a"), net.AddNode("r"), net.AddNode("b")
		net.AddLink(a, b, 0, direct, 0)
		net.AddLink(a, r, 0, 5*sim.Millisecond, 0)
		net.AddLink(r, b, 0, 5*sim.Millisecond, 0)
		return a, b
	}
	a, b := build(20 * sim.Millisecond)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.Run()
	if c.at[0] != 10*sim.Millisecond {
		t.Fatalf("fresh build took %v, want relay path 10ms", c.at[0])
	}

	sch.Reset()
	net.Reset()
	a, b = build(2 * sim.Millisecond) // direct link now fastest
	c2 := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c2)
	net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.Run()
	if len(c2.got) != 1 || c2.at[0] != 2*sim.Millisecond {
		t.Fatalf("rewound build ignored new delay: arrivals %v", c2.at)
	}
}

// TestResetRecyclesStorage: after Reset, an identical rebuild of a
// 50-leaf star hands back the previous run's *Link pointers in order, and
// a rewind plus rebuild plus one multicast and one unicast send allocates
// only the multicast tree compile (28 objects): nodes, links, queues,
// adjacency, routes and packets all come from recycled storage.
func TestResetRecyclesStorage(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	var links []*Link
	var src, leaf0 NodeID
	build := func() {
		links = links[:0]
		src = net.AddNode("src")
		hub := net.AddNode("hub")
		up, down := net.AddDuplex(src, hub, 1e6, sim.Millisecond, 10)
		links = append(links, up, down)
		for i := 0; i < 50; i++ {
			leaf := net.AddNode("leaf")
			if i == 0 {
				leaf0 = leaf
			}
			out, back := net.AddDuplex(hub, leaf, 0, sim.Time(1+i%5)*sim.Millisecond, 0)
			links = append(links, out, back)
			net.Join(1, leaf)
		}
	}
	send := func() {
		p := net.AllocPacket()
		p.Size, p.Src, p.IsMcast, p.Group = 100, Addr{src, 1}, true, 1
		net.Send(p)
		q := net.AllocPacket()
		q.Size, q.Src, q.Dst = 100, Addr{src, 1}, Addr{leaf0, 1}
		net.Send(q)
		sch.Run()
	}
	rewind := func() {
		sch.Reset()
		net.Reset()
		build()
		send()
	}
	build()
	send()
	prev := slices.Clone(links)
	rewind()
	if !slices.Equal(links, prev) {
		t.Fatal("the rebuild did not hand back the previous run's links in order")
	}
	allocs := testing.AllocsPerRun(20, rewind)
	t.Logf("%v allocs per rewind, rebuild and send", allocs)
	if allocs > 28 {
		t.Fatalf("rewind, rebuild and send allocate %v objects, want <= 28", allocs)
	}
}
