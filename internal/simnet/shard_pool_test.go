package simnet

import (
	"testing"

	"repro/internal/sim"
)

// pooledPackets counts every recycled packet the network holds: the
// free lists.
func pooledPackets(n *Network) int {
	total := 0
	for c := range n.freePkts {
		total += len(n.freePkts[c])
	}
	return total
}

// TestShardedPoolRecirculates: a one-way cross-region flow allocates on
// one shard and releases on the other. The packets must travel back — the
// flow may not mint a fresh packet per send within a run, and repeated
// sharded rewinds of it may not grow the pool: its size plateaus after
// the second run.
func TestShardedPoolRecirculates(t *testing.T) {
	ctl := sim.NewScheduler()
	n := New(ctl, sim.NewRand(1))
	const (
		sends     = 5000
		lookahead = 5 * sim.Millisecond
	)
	run := func() {
		n.EnableSharding(Partition{ShardOf: []int32{0, 1}, Shards: 2, Lookahead: lookahead}, 1)
		a, b := n.AddNode("a"), n.AddNode("b")
		n.AddDuplex(a, b, 0, lookahead, 0)
		got := 0
		n.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { got++ }))
		src := n.SchedFor(a)
		for i := 0; i < sends; i++ {
			src.At(sim.Time(i)*100*sim.Microsecond, func() {
				pkt := n.AllocPacket()
				pkt.Size, pkt.Src, pkt.Dst = 100, Addr{a, 1}, Addr{b, 1}
				n.Send(pkt)
			})
		}
		end := sim.Time(sends)*100*sim.Microsecond + 2*lookahead
		for now := sim.Time(0); now < end; now += lookahead {
			for _, sc := range n.regions.shards {
				sc.sched.RunUntil(now + lookahead)
			}
		}
		if got != sends || n.LivePackets() != 0 {
			t.Fatalf("delivered %d of %d, %d packets still live", got, sends, n.LivePackets())
		}
	}
	var pooled []int
	for i := 0; i < 5; i++ {
		run()
		pooled = append(pooled, pooledPackets(n))
		ctl.Reset()
		n.Reset()
		if after := pooledPackets(n); after != pooled[i] {
			t.Fatalf("run %d: Reset changed the pooled count %d -> %d", i, pooled[i], after)
		}
	}
	// In flight at once: the first window's 51 sends (0 to 5 ms, both ends
	// included) wait in the destination's scheduler while the source
	// shard, stepped first, allocates the next window's 50.
	if pooled[0] > 51+50 {
		t.Errorf("one run of %d sends left %d packets pooled: the flow is not recirculating", sends, pooled[0])
	}
	for i := 2; i < len(pooled); i++ {
		if pooled[i] != pooled[1] {
			t.Errorf("pooled packets after runs 1..%d: %v — still growing after run 2", len(pooled), pooled)
			break
		}
	}
}
