package simnet

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// eagerRoutes is the reference all-pairs table, written the slow obvious
// way: linear-scan Dijkstra per source (lowest index among equal
// distances, strict relaxation over neighbours in destination order — the
// tie-breaks the production heap reproduces), then the first hop found by
// walking predecessors back and looking the link up by its endpoints.
func eagerRoutes(n *Network) [][]int32 {
	cnt := len(n.nodes)
	const inf = int64(1) << 62
	table := make([][]int32, cnt)
	for src := range table {
		dist := make([]int64, cnt)
		prev := make([]int, cnt)
		done := make([]bool, cnt)
		for i := range dist {
			dist[i], prev[i] = inf, -1
		}
		dist[src] = 0
		for {
			u := -1
			for i := range dist {
				if !done[i] && dist[i] < inf && (u < 0 || dist[i] < dist[u]) {
					u = i
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			var out []*Link
			for _, l := range n.linkList {
				if int(l.From) == u && !l.down {
					out = append(out, l)
				}
			}
			slices.SortFunc(out, func(a, b *Link) int { return int(a.To) - int(b.To) })
			for _, l := range out {
				if nd := dist[u] + min(int64(l.Delay), inf-1) + 1; nd < dist[l.To] {
					dist[l.To], prev[l.To] = nd, u
				}
			}
		}
		row := make([]int32, cnt)
		for d := range row {
			row[d] = -1
			if d == src || prev[d] < 0 {
				continue
			}
			hop := d
			for prev[hop] != src {
				hop = prev[hop]
			}
			row[d] = n.linkIdx[linkKey{NodeID(src), NodeID(hop)}]
		}
		table[src] = row
	}
	return table
}

// randomGraph builds (or, on a rewound network, rebuilds) a connected-ish
// graph whose delays come from a three-value set, so equal-cost paths are
// everywhere.
func randomGraph(n *Network, seed int64) []*Link {
	rng := rand.New(rand.NewSource(seed))
	v := 8 + rng.Intn(20)
	for i := 0; i < v; i++ {
		n.AddNode("n")
	}
	delay := func() sim.Time { return sim.Time(1+rng.Intn(3)) * sim.Millisecond }
	var links []*Link
	seen := map[linkKey]bool{}
	add := func(a, b int) {
		if a == b || seen[linkKey{NodeID(a), NodeID(b)}] {
			return
		}
		seen[linkKey{NodeID(a), NodeID(b)}] = true
		seen[linkKey{NodeID(b), NodeID(a)}] = true
		ab, ba := n.AddDuplex(NodeID(a), NodeID(b), 0, delay(), 0)
		links = append(links, ab, ba)
	}
	for i := 1; i < v-2; i++ { // the last two nodes may stay unreachable
		add(i, rng.Intn(i))
	}
	for i := 0; i < 2*v; i++ {
		add(rng.Intn(v), rng.Intn(v))
	}
	return links
}

// fillRoutes asks for every row, the all-rows fill forwarding never does.
func fillRoutes(n *Network) {
	for s := range n.nodes {
		n.routeRow(NodeID(s))
	}
}

// checkRows asks for rows one at a time in a seeded order — checking after
// each, when the topology has just changed, that the asked-for rows exist
// and that any other row is one a single-exit row was derived from (the
// far end of its only link) — and compares every row, then the fillRoutes
// fill, against the eager reference.
func checkRows(t *testing.T, n *Network, rng *rand.Rand, when string) {
	t.Helper()
	want := eagerRoutes(n)
	stale := !n.routesOK
	asked := map[int]bool{}
	for _, s := range rng.Perm(len(n.nodes))[:len(n.nodes)/2] {
		if got := n.routeRow(NodeID(s)); !slices.Equal(got, want[s]) {
			t.Fatalf("%s: lazy row %d = %v, eager table has %v", when, s, got, want[s])
		}
		asked[s] = true
		if !stale {
			continue
		}
		derivedFrom := map[NodeID]bool{}
		for u, r := range n.routeRows {
			if lo, hi := n.adjStart[u], n.adjStart[u+1]; r != nil && hi-lo == 1 {
				derivedFrom[n.linkList[n.adjLinks[lo]].To] = true
			}
		}
		for u, r := range n.routeRows {
			if r != nil && !asked[u] && !derivedFrom[NodeID(u)] {
				t.Fatalf("%s: row %d computed, but nobody asked for it or derived a row from it", when, u)
			}
		}
	}
	fillRoutes(n)
	for s := range want {
		if !slices.Equal(n.routeRows[s], want[s]) {
			t.Fatalf("%s: fillRoutes row %d = %v, eager table has %v", when, s, n.routeRows[s], want[s])
		}
	}
}

// TestLazyRouteRowsMatchEagerTable: rows computed on demand equal the
// all-pairs table on random graphs with equal-cost ties and down links,
// before and after every kind of invalidation, and on a rewound network.
func TestLazyRouteRowsMatchEagerTable(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		n := New(sim.NewScheduler(), sim.NewRand(1))
		n.EnableReuse()
		links := randomGraph(n, seed)
		pick := func() *Link { return links[rng.Intn(len(links))] }
		for i := 0; i < 3; i++ {
			pick().SetDown(true)
		}
		checkRows(t, n, rng, "fresh")

		l := pick()
		l.SetDelay(l.Delay%(3*sim.Millisecond) + sim.Millisecond)
		checkRows(t, n, rng, "after SetDelay")
		l = pick()
		l.SetDown(!l.IsDown())
		checkRows(t, n, rng, "after SetDown")
		extra := n.AddNode("late")
		n.AddDuplex(extra, NodeID(1+rng.Intn(int(extra)-1)), 0, sim.Millisecond, 0)
		n.AddLink(NodeID(0), extra, 0, 2*sim.Millisecond, 0)
		checkRows(t, n, rng, "after AddNode/AddLink")

		// Rewind and rebuild the original construction: the late node is
		// gone, the mutated delay and the down links are restored.
		if !n.Reset() {
			t.Fatal("Reset refused")
		}
		randomGraph(n, seed)
		n.Send(&Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 0}}) // a send on the rebuilt network
		fresh := New(sim.NewScheduler(), sim.NewRand(1))
		randomGraph(fresh, seed)
		if a, b := eagerRoutes(n), eagerRoutes(fresh); !slices.EqualFunc(a, b, slices.Equal[[]int32]) {
			t.Fatal("reference tables differ between rewound and fresh network")
		}
		checkRows(t, n, rng, "rewound")
	}
}

// TestRouteSlabsSurviveInvalidation: recomputing rows after a topology
// change re-carves the existing slabs instead of allocating.
func TestRouteSlabsSurviveInvalidation(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRand(1))
	links := randomGraph(n, 3)
	fillRoutes(n)
	allocs := testing.AllocsPerRun(10, func() {
		links[0].SetDelay(links[0].Delay + sim.Millisecond)
		fillRoutes(n)
	})
	if allocs != 0 {
		t.Fatalf("route recomputation allocates %v objects per rebuild", allocs)
	}
}

// TestRoutesSkipEndlessLinks: a link whose delay reaches 2⁶² ns (about
// 146 years) routes nothing, whatever its delay up to the end of
// sim.Time. Its weight used to wrap negative at MaxTime, so the route
// from a to b took it over a 2 ms path, and a node behind it alone was
// reachable.
func TestRoutesSkipEndlessLinks(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRand(1))
	a, b, c, far := n.AddNode("a"), n.AddNode("b"), n.AddNode("c"), n.AddNode("far")
	n.AddLink(a, b, 0, sim.MaxTime, 0)
	n.AddLink(a, far, 0, sim.MaxTime, 0)
	n.AddDuplex(a, c, 0, sim.Millisecond, 0)
	n.AddDuplex(c, b, 0, sim.Millisecond, 0)
	row := n.routeRow(a)
	if via := n.linkIdx[linkKey{a, c}]; row[b] != via || row[far] != -1 {
		t.Errorf("a routes to b over link %d (want %d, via c) and to far over %d (want -1)", row[b], via, row[far])
	}
	if want := eagerRoutes(n)[a]; !slices.Equal(row, want) {
		t.Errorf("row %v, eager table has %v", row, want)
	}
}

// TestSingleExitRowsMatchDijkstra: rows derived for nodes with one
// outgoing link equal the eager table where derivation is tricky — two
// nodes that are each other's only exit, a single exit that is down, and
// a chain of single exits — and a star's leaves run one Dijkstra between
// them, the hub's.
func TestSingleExitRowsMatchDijkstra(t *testing.T) {
	check := func(name string, n *Network) {
		t.Helper()
		want := eagerRoutes(n)
		for s := range want {
			if got := n.routeRow(NodeID(s)); !slices.Equal(got, want[s]) {
				t.Errorf("%s: row %d = %v, eager table has %v", name, s, got, want[s])
			}
		}
	}

	pair := New(sim.NewScheduler(), sim.NewRand(1))
	a, b := pair.AddNode("a"), pair.AddNode("b")
	pair.AddDuplex(a, b, 0, sim.Millisecond, 0)
	check("two-node net", pair)

	down := New(sim.NewScheduler(), sim.NewRand(1))
	hub := down.AddNode("hub")
	leaf := down.AddNode("leaf")
	other := down.AddNode("other")
	up, _ := down.AddDuplex(hub, leaf, 0, sim.Millisecond, 0)
	down.AddDuplex(hub, other, 0, sim.Millisecond, 0)
	down.LinkBetween(leaf, hub).SetDown(true)
	check("down uplink", down)
	if row := down.routeRow(leaf); slices.ContainsFunc(row, func(h int32) bool { return h >= 0 }) {
		t.Errorf("down uplink: leaf row %v routes somewhere", row)
	}
	up.SetDown(true) // now the hub's link to leaf is down as well
	check("down uplink both ways", down)

	// c0 -> c1 -> c2 -> c3 <-> c4: the first three have one exit each.
	chain := New(sim.NewScheduler(), sim.NewRand(1))
	var c [5]NodeID
	for i := range c {
		c[i] = chain.AddNode("c")
	}
	for i := 0; i < 3; i++ {
		chain.AddLink(c[i], c[i+1], 0, sim.Millisecond, 0)
	}
	chain.AddDuplex(c[3], c[4], 0, sim.Millisecond, 0)
	chain.AddLink(c[3], c[0], 0, 5*sim.Millisecond, 0)
	chain.routeRow(c[0])
	for i := range c {
		if computed := chain.routeRows[c[i]] != nil; computed != (i != 4) {
			t.Errorf("chain: after asking for c0, row c%d computed = %v", i, computed)
		}
	}
	check("chain", chain)

	star := New(sim.NewScheduler(), sim.NewRand(1))
	src := star.AddNode("src")
	centre := star.AddNode("hub")
	star.AddDuplex(src, centre, 0, sim.Millisecond, 0)
	for i := 0; i < 50; i++ {
		star.AddDuplex(centre, star.AddNode("leaf"), 0, sim.Time(i+1)*sim.Millisecond, 0)
	}
	star.dropRoutes()
	runs := 0
	for s := NodeID(2); s < NodeID(star.NumNodes()); s++ {
		star.routeRow(s)
	}
	for u, r := range star.routeRows {
		if lo, hi := star.adjStart[u], star.adjStart[u+1]; r != nil && hi-lo != 1 {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("star: the leaves' rows took %d Dijkstra runs, want 1 (the hub's)", runs)
	}
	check("star", star)
}
