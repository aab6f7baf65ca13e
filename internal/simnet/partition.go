package simnet

import (
	"sort"

	"repro/internal/sim"
)

// Region partitioner: cut the topology into regions whose crossing links
// all have non-zero delay, so the minimum crossing delay can serve as a
// conservative synchronization lookahead.
//
// Hinted topologies (transit-stub domains, dumbbell halves — see
// internal/scenario's generators) seed the assignment directly; unhinted
// nodes inherit a region through their links. Without any hints the
// fallback is a delay-threshold cut: remove the largest delay class (then
// progressively more) until the topology falls apart, which isolates the
// long-haul links every generated topology keeps between its clusters.

// MaxAutoShards caps how many regions PartitionRegions returns. The cap
// is a constant on purpose: the region structure must depend only on the
// topology, never on a run option.
const MaxAutoShards = 8

// InfiniteLookahead is the Lookahead reported when no crossing link
// bounds the window (a single region, or disconnected regions): windows
// are then clipped only by control events and the run duration.
const InfiniteLookahead = sim.Time(1) << 62

// Partition is a region assignment plus its synchronization lookahead.
type Partition struct {
	ShardOf   []int32  // node -> region, compact ids in node order
	Shards    int      // number of regions
	Lookahead sim.Time // min crossing-link delay; InfiniteLookahead if none
}

// dsu is a deterministic union-find over node ids.
type dsu struct{ parent []int32 }

func newDSU(n int) *dsu {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return &dsu{parent: p}
}

func (d *dsu) find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// union merges the two sets, keeping the smaller root id as
// representative so results are independent of call order details.
func (d *dsu) union(a, b int32) bool {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return false
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	return true
}

// PartitionRegions computes a region assignment for the network's
// current topology. pinned marks links whose delay a scenario mutates at
// runtime (SetLink events with a Delay): their endpoints are merged into
// one region so the lookahead — fixed for the whole run — can never be
// undercut. maxShards caps the region count (0 means MaxAutoShards);
// excess regions are merged across the smallest-delay crossing links,
// which maximises the surviving lookahead.
func PartitionRegions(n *Network, pinned map[*Link]bool, maxShards int) Partition {
	if maxShards <= 0 {
		maxShards = MaxAutoShards
	}
	v := len(n.nodes)
	if v == 0 {
		return Partition{Shards: 0, Lookahead: InfiniteLookahead}
	}
	links := n.linkList

	d := newDSU(v)
	// Region labels per DSU root, -1 unlabeled. Seeded from hints; merged
	// sets keep the smallest label involved.
	label := make([]int32, v)
	for i := range label {
		label[i] = -1
	}
	for id, r := range n.hints {
		root := d.find(int32(id))
		if label[root] == -1 || r < label[root] {
			label[root] = r
		}
	}
	unionLabeled := func(a, b int32) {
		ra, rb := d.find(a), d.find(b)
		if ra == rb {
			return
		}
		la, lb := label[ra], label[rb]
		d.union(ra, rb)
		root := d.find(ra)
		switch {
		case la == -1:
			label[root] = lb
		case lb == -1 || la < lb:
			label[root] = la
		default:
			label[root] = lb
		}
	}

	// Pinned links first: their endpoints must share a region whatever the
	// hints say.
	for _, l := range links {
		if pinned[l] {
			unionLabeled(int32(l.From), int32(l.To))
		}
	}

	if len(n.hints) > 0 {
		// Hinted: unhinted nodes inherit a region over their links, to a
		// fixpoint. A link between two differently-labeled sets is a
		// crossing candidate and is left alone.
		for changed := true; changed; {
			changed = false
			for _, l := range links {
				ra, rb := d.find(int32(l.From)), d.find(int32(l.To))
				if ra == rb {
					continue
				}
				la, lb := label[ra], label[rb]
				if la == -1 || lb == -1 || la == lb {
					unionLabeled(ra, rb)
					changed = true
				}
			}
		}
	} else {
		// No hints: delay-threshold cut. Try removing only the largest
		// delay class; if the topology still hangs together, remove the
		// next class too, and so on. The first threshold that disconnects
		// the graph wins.
		delays := make([]sim.Time, 0, len(links))
		seen := map[sim.Time]bool{}
		for _, l := range links {
			if !seen[l.Delay] {
				seen[l.Delay] = true
				delays = append(delays, l.Delay)
			}
		}
		sort.Slice(delays, func(i, j int) bool { return delays[i] > delays[j] })
		for _, th := range delays {
			trial := newDSU(v)
			for _, l := range links {
				if l.Delay < th || pinned[l] {
					trial.union(int32(l.From), int32(l.To))
				}
			}
			comps := 0
			for i := int32(0); i < int32(v); i++ {
				if trial.find(i) == i {
					comps++
				}
			}
			if comps >= 2 {
				// Adopt the trial partition (labels are irrelevant here).
				d = trial
				break
			}
		}
	}

	// A zero-delay crossing link would make the lookahead zero; merge its
	// endpoints until none remain.
	for changed := true; changed; {
		changed = false
		for _, l := range links {
			if l.Delay == 0 && d.find(int32(l.From)) != d.find(int32(l.To)) {
				d.union(int32(l.From), int32(l.To))
				changed = true
			}
		}
	}

	countRegions := func() int {
		c := 0
		for i := int32(0); i < int32(v); i++ {
			if d.find(i) == i {
				c++
			}
		}
		return c
	}

	// Cap the region count by collapsing the cheapest crossings first
	// (smallest delay, then creation order): each merge removes the link
	// most likely to bound the lookahead.
	for countRegions() > maxShards {
		best := -1
		for i, l := range links {
			if d.find(int32(l.From)) == d.find(int32(l.To)) {
				continue
			}
			if best < 0 || l.Delay < links[best].Delay {
				best = i
			}
		}
		if best < 0 {
			break // disconnected regions only; nothing to merge
		}
		d.union(int32(links[best].From), int32(links[best].To))
	}

	// Compact region ids in node order.
	shardOf := make([]int32, v)
	idOf := make(map[int32]int32, maxShards)
	next := int32(0)
	for i := int32(0); i < int32(v); i++ {
		r := d.find(i)
		id, ok := idOf[r]
		if !ok {
			id = next
			idOf[r] = id
			next++
		}
		shardOf[i] = id
	}

	la := InfiniteLookahead
	for _, l := range links {
		if shardOf[l.From] != shardOf[l.To] && l.Delay < la {
			la = l.Delay
		}
	}
	return Partition{ShardOf: shardOf, Shards: int(next), Lookahead: la}
}
