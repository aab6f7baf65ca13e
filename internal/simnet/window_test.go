package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// shardedNet returns a node-less network with k shards and no lookahead
// bound, plus the shard schedulers, for driving peek and stepTo directly.
func shardedNet(k int) (*Network, []*sim.Scheduler) {
	n := New(sim.NewScheduler(), sim.NewRand(1))
	n.EnableSharding(Partition{Shards: k, Lookahead: InfiniteLookahead}, 1)
	scheds := make([]*sim.Scheduler, k)
	for i := range scheds {
		scheds[i] = n.regions.shards[i].sched
	}
	return n, scheds
}

// A window steps exactly the shards with an event due by its end; the
// others are only moved to the window end, and every clock reads it
// afterwards.
func TestStepToSkipsIdleShards(t *testing.T) {
	n, scheds := shardedNet(4)
	ran := make([]int, len(scheds))
	at := func(i int, when sim.Time) { scheds[i].At(when, func() { ran[i]++ }) }
	at(0, 5)
	at(1, 30) // beyond the first window
	at(3, 10)
	at(3, 10)
	if emin := n.regions.peek(); emin != 5 {
		t.Fatalf("earliest pending event %d, want 5", emin)
	}
	if busy := n.regions.stepTo(10); busy != 2 {
		t.Errorf("window to 10 stepped %d shards, want 2", busy)
	}
	if fmt.Sprint(ran) != "[1 0 0 2]" {
		t.Errorf("events run per shard %v, want [1 0 0 2]", ran)
	}
	for i, s := range scheds {
		if s.Now() != 10 {
			t.Errorf("shard %d clock %d after the window, want 10", i, s.Now())
		}
	}
	if emin := n.regions.peek(); emin != 30 {
		t.Errorf("earliest pending event %d, want 30", emin)
	}
	if busy := n.regions.stepTo(20); busy != 0 {
		t.Errorf("empty window stepped %d shards", busy)
	}
	n.regions.peek()
	if busy := n.regions.stepTo(30); busy != 1 || ran[1] != 1 {
		t.Errorf("window to 30 stepped %d shards and ran shard 1 %d times, want 1 and 1", busy, ran[1])
	}
	if emin := n.regions.peek(); emin != sim.MaxTime {
		t.Errorf("drained shards report an event at %d", emin)
	}
}

// A shard whose only pending event is a re-armed timer reports the
// timer's true time through peek, not the earlier key its heap entry
// kept, so the window that follows does not count the shard as busy.
func TestPeekSeesRearmedTime(t *testing.T) {
	n, scheds := shardedNet(2)
	nop := func(any) {}
	tm := scheds[0].AfterArg(5, nop, nil)
	if scheds[0].RearmArg(tm, 40, nop, nil) != tm {
		t.Fatal("setup: the re-arm did not keep the handle")
	}
	scheds[1].AfterArg(30, nop, nil)
	if emin := n.regions.peek(); emin != 30 {
		t.Fatalf("earliest pending event %d, want 30", emin)
	}
	if next := n.regions.shards[0].next; next != 40 {
		t.Errorf("re-armed shard reports %d, want 40", next)
	}
	if busy := n.regions.stepTo(30); busy != 1 {
		t.Errorf("window to 30 stepped %d shards, want 1", busy)
	}
}

// A packet the caller sends between two RunUntil calls over a crossing
// link is scheduled into the destination shard at once, so the next
// RunUntil does not step that shard past its arrival: it is delivered on
// time, and counted as one handoff.
func TestRunUntilDeliversCallerSends(t *testing.T) {
	const delay = 5 * sim.Millisecond
	n := New(sim.NewScheduler(), sim.NewRand(1))
	n.EnableSharding(Partition{ShardOf: []int32{0, 1}, Shards: 2, Lookahead: delay}, 1)
	a, b := n.AddNode("a"), n.AddNode("b")
	n.AddDuplex(a, b, 0, delay, 0)
	var got []sim.Time
	n.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { got = append(got, n.SchedFor(b).Now()) }))
	n.RunUntil(10 * sim.Millisecond)
	n.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	n.RunUntil(100 * sim.Millisecond)
	if fmt.Sprint(got) != fmt.Sprint([]sim.Time{10*sim.Millisecond + delay}) {
		t.Errorf("deliveries at %v, want one at %v", got, 10*sim.Millisecond+delay)
	}
	st := n.RegionStats()
	if st.Handoffs != 1 {
		t.Errorf("%d handoffs, want 1", st.Handoffs)
	}
	if st.Windows == 0 || st.WindowNS != 100*sim.Millisecond {
		t.Errorf("%d windows spanning %v, want some spanning the 100 ms run", st.Windows, st.WindowNS)
	}
}

// A crossing arrival past the end of sim.Time is scheduled at MaxTime, as
// a local link's timer is, not at an instant that wrapped into the
// destination's past: a packet sent once now + delay passes MaxTime, and
// packets whose reordering stretch does. The delay is the longest a route
// still crosses (just under 2⁶² ns).
func TestCrossingArrivalSaturates(t *testing.T) {
	const delay = 1<<62 - sim.Second
	n := New(sim.NewScheduler(), sim.NewRand(1))
	n.EnableSharding(Partition{ShardOf: []int32{0, 1}, Shards: 2, Lookahead: delay}, 1)
	a, b := n.AddNode("a"), n.AddNode("b")
	ab, _ := n.AddDuplex(a, b, 0, delay, 0)
	var late []sim.Time // deliveries before their earliest arrival
	n.Bind(Addr{b, 1}, HandlerFunc(func(pkt *Packet) {
		if now := n.SchedFor(b).Now(); now < pkt.SentAt+delay {
			late = append(late, now)
		}
	}))
	ab.SetImpairments(0, 0, 1, sim.MaxTime)
	for i := 0; i < 20; i++ {
		n.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	}
	ab.SetImpairments(0, 0, 0, 0)
	n.RunUntil(1<<62 + sim.Second)
	n.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	n.RunUntil(sim.MaxTime - 1)
	if st := n.RegionStats(); st.Handoffs != 21 || len(late) > 0 {
		t.Errorf("%d handoffs (want 21), deliveries ahead of their delay at %v", st.Handoffs, late)
	}
	if at, ok := n.SchedFor(b).PeekTime(); !ok || at != sim.MaxTime {
		t.Errorf("destination's next event at %v (pending %v), want the late send at MaxTime", at, ok)
	}
}

// A panic in the only busy shard of a window reaches the caller of
// stepTo, on the calling goroutine.
func TestShardPanicInlineWindow(t *testing.T) {
	n, scheds := shardedNet(3)
	scheds[1].After(1, func() { panic("boom in the only busy shard") })
	r := func() (r any) {
		defer func() { r = recover() }()
		n.regions.stepTo(n.regions.peek())
		return nil
	}()
	if r != "boom in the only busy shard" {
		t.Fatalf("stepTo panicked with %v", r)
	}
}

// A window with every shard busy allocates nothing.
func TestParallelWindowAllocatesNothing(t *testing.T) {
	n, scheds := shardedNet(8)
	noop := func() {}
	window := func() {
		for _, s := range scheds {
			s.After(1, noop)
		}
		if n.regions.stepTo(n.regions.peek()) != len(scheds) {
			t.Fatal("not every shard was busy")
		}
	}
	window() // grow the schedulers' heaps
	if avg := testing.AllocsPerRun(2000, window); avg != 0 {
		t.Fatalf("a window over 8 busy shards allocates %.2f objects", avg)
	}
}

// BenchmarkWindowBarrier times one synchronization window over 8 shards
// — peek, classify, step — with one trivial event on each busy shard, so
// ns/op is the barrier's own cost per window.
func BenchmarkWindowBarrier(b *testing.B) {
	noop := func() {}
	for _, busy := range []int{0, 1, 2, 8} {
		b.Run(fmt.Sprintf("busy%d", busy), func(b *testing.B) {
			n, scheds := shardedNet(8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range scheds[:busy] {
					s.After(1, noop)
				}
				n.regions.peek()
				n.regions.stepTo(sim.Time(i + 1))
			}
		})
	}
}
