package simnet

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/sim"
)

// drainStar builds a sharded network of srcs source nodes, one region
// each, all linked to every one of dsts sink nodes in regions of their
// own. It returns the source->sink links by [src][dst] and, per sink, the
// payloads its handler received in dispatch order.
func drainStar(srcs, dsts int) (n *Network, setups []ShardSetup, links [][]*Link, got [][]int) {
	n = New(sim.NewScheduler(), sim.NewRand(1))
	k := srcs + dsts
	shardOf := make([]int32, k)
	for i := range shardOf {
		shardOf[i] = int32(i)
		setups = append(setups, ShardSetup{Sched: sim.NewScheduler(), NetRng: sim.NewRand(int64(2 * i)), ProtoRng: sim.NewRand(int64(2*i + 1))})
	}
	n.EnableSharding(Partition{ShardOf: shardOf, Shards: k, Lookahead: sim.Millisecond}, setups)
	nodes := make([]NodeID, k)
	for i := range nodes {
		nodes[i] = n.AddNode("")
	}
	got = make([][]int, dsts)
	for d := 0; d < dsts; d++ {
		n.Bind(Addr{nodes[srcs+d], 1}, HandlerFunc(func(p *Packet) { got[d] = append(got[d], p.Payload.(int)) }))
	}
	links = make([][]*Link, srcs)
	for s := range links {
		for d := 0; d < dsts; d++ {
			links[s] = append(links[s], n.AddLink(nodes[s], nodes[srcs+d], 0, sim.Millisecond, 0))
		}
	}
	return n, setups, links, got
}

// TestDrainOrderMatchesSortedReference: DrainHandoffs schedules handoffs
// as it finds them, relying on the scheduler's schedule-order tie-break
// to dispatch each destination's handoffs in (arrival time, source
// region, per-source push order). The reference is the explicit sort on
// that key the drain used to do. Arrival times collide on purpose, within
// a source, across sources and across two drains into one window.
func TestDrainOrderMatchesSortedReference(t *testing.T) {
	const srcs, dsts = 4, 2
	type ref struct {
		at       sim.Time
		src, seq int
		id       int
	}
	for seed := int64(1); seed <= 20; seed++ {
		n, setups, links, got := drainStar(srcs, dsts)
		rng := sim.NewRand(seed)
		want := make([][]ref, dsts)
		id := 0
		for drain := 0; drain < 2; drain++ {
			for i := 0; i < 60; i++ {
				s, d := rng.Intn(srcs), rng.Intn(dsts)
				at := sim.Time(10 + rng.Intn(6))
				n.pushHandoff(links[s][d], at, &Packet{Dst: Addr{links[s][d].To, 1}, Payload: id})
				// Push order within a source is its sequence; a later drain
				// schedules after an earlier one whatever the source.
				want[d] = append(want[d], ref{at: at, src: drain*srcs + s, seq: id, id: id})
				id++
			}
			if moved := n.DrainHandoffs(); moved != 60 {
				t.Fatalf("seed %d: drain moved %d handoffs, want 60", seed, moved)
			}
		}
		for d := 0; d < dsts; d++ {
			setups[srcs+d].Sched.RunUntil(100)
			slices.SortFunc(want[d], func(a, b ref) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
			})
			if len(got[d]) != len(want[d]) {
				t.Fatalf("seed %d: sink %d received %d handoffs, want %d", seed, d, len(got[d]), len(want[d]))
			}
			for i, w := range want[d] {
				if got[d][i] != w.id {
					t.Fatalf("seed %d: sink %d dispatch %d was handoff %d, sorted reference says %d", seed, d, i, got[d][i], w.id)
				}
			}
		}
		if sent, recv := n.HandoffCounts(); sent != 120 || recv != 120 {
			t.Fatalf("seed %d: handoffs sent %d, drained %d, want 120 each", seed, sent, recv)
		}
	}
}

// TestDrainReleasesEveryHandoff: after a drain nothing the barrier
// touched still references a packet or a link — not in the part of an
// outbox's backing array beyond its length either, which a destination
// with fewer handoffs than the one before it used to leave behind — and
// only the outboxes written since the last drain are visited.
func TestDrainReleasesEveryHandoff(t *testing.T) {
	n, setups, links, _ := drainStar(3, 2)
	push := func(s, d, count int) {
		for i := 0; i < count; i++ {
			n.pushHandoff(links[s][d], 10, &Packet{Dst: Addr{links[s][d].To, 1}, Payload: i})
		}
	}
	// Unequal loads: the first sink gets far more than the second.
	push(0, 0, 40)
	push(1, 0, 25)
	push(2, 0, 1)
	push(1, 1, 3)
	if got := len(n.shards[1].dirty); got != 2 {
		t.Fatalf("source 1 wrote two outboxes, its dirty list has %d", got)
	}
	if moved := n.DrainHandoffs(); moved != 69 {
		t.Fatalf("drain moved %d handoffs, want 69", moved)
	}
	if a, b := setups[3].Sched.Pending(), setups[4].Sched.Pending(); a != 66 || b != 3 {
		t.Fatalf("sinks hold %d and %d scheduled arrivals, want 66 and 3", a, b)
	}
	for i, box := range n.outbox {
		if len(box) != 0 {
			t.Errorf("outbox %d still holds %d handoffs", i, len(box))
		}
		for j, h := range box[:cap(box)] {
			if h.pkt != nil || h.l != nil {
				t.Fatalf("outbox %d backing slot %d still references its packet/link after the drain", i, j)
			}
		}
	}
	for i, sc := range n.shards {
		if len(sc.dirty) != 0 {
			t.Errorf("shard %d dirty list not reset: %v", i, sc.dirty)
		}
	}
	// A second drain with nothing written moves nothing; one written
	// outbox is found again.
	if moved := n.DrainHandoffs(); moved != 0 {
		t.Fatalf("empty drain moved %d handoffs", moved)
	}
	push(2, 1, 2)
	if moved := n.DrainHandoffs(); moved != 2 {
		t.Fatalf("drain after two pushes moved %d handoffs", moved)
	}
}
