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
	setups := make([]ShardSetup, k)
	scheds := make([]*sim.Scheduler, k)
	for i := range setups {
		scheds[i] = sim.NewScheduler()
		setups[i] = ShardSetup{Sched: scheds[i], NetRng: sim.NewRand(int64(2 * i)), ProtoRng: sim.NewRand(int64(2*i + 1))}
	}
	n.EnableSharding(Partition{Shards: k, Lookahead: InfiniteLookahead}, setups)
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
	if emin := n.peek(); emin != 5 {
		t.Fatalf("earliest pending event %d, want 5", emin)
	}
	if busy := n.stepTo(10); busy != 2 {
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
	if emin := n.peek(); emin != 30 {
		t.Errorf("earliest pending event %d, want 30", emin)
	}
	if busy := n.stepTo(20); busy != 0 {
		t.Errorf("empty window stepped %d shards", busy)
	}
	n.peek()
	if busy := n.stepTo(30); busy != 1 || ran[1] != 1 {
		t.Errorf("window to 30 stepped %d shards and ran shard 1 %d times, want 1 and 1", busy, ran[1])
	}
	if emin := n.peek(); emin != sim.MaxTime {
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
	if emin := n.peek(); emin != 30 {
		t.Fatalf("earliest pending event %d, want 30", emin)
	}
	if next := n.shards[0].next; next != 40 {
		t.Errorf("re-armed shard reports %d, want 40", next)
	}
	if busy := n.stepTo(30); busy != 1 {
		t.Errorf("window to 30 stepped %d shards, want 1", busy)
	}
}

// A packet the caller sends between two RunUntil calls over a crossing
// link parks in its outbox at once. RunUntil drains it before the first
// window, so the destination shard is not stepped past its arrival: it
// is delivered on time, and sent equals drained afterwards.
func TestRunUntilDrainsCallerSends(t *testing.T) {
	const delay = 5 * sim.Millisecond
	n := New(sim.NewScheduler(), sim.NewRand(1))
	setups := []ShardSetup{
		{Sched: sim.NewScheduler(), NetRng: sim.NewRand(2), ProtoRng: sim.NewRand(3)},
		{Sched: sim.NewScheduler(), NetRng: sim.NewRand(4), ProtoRng: sim.NewRand(5)},
	}
	n.EnableSharding(Partition{ShardOf: []int32{0, 1}, Shards: 2, Lookahead: delay}, setups)
	a, b := n.AddNode("a"), n.AddNode("b")
	n.AddDuplex(a, b, 0, delay, 0)
	var got []sim.Time
	n.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { got = append(got, setups[1].Sched.Now()) }))
	n.RunUntil(10 * sim.Millisecond)
	n.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	n.RunUntil(100 * sim.Millisecond)
	if fmt.Sprint(got) != fmt.Sprint([]sim.Time{10*sim.Millisecond + delay}) {
		t.Errorf("deliveries at %v, want one at %v", got, 10*sim.Millisecond+delay)
	}
	if sent, recv := n.HandoffCounts(); sent != 1 || recv != 1 {
		t.Errorf("handoffs sent %d, drained %d, want 1 and 1", sent, recv)
	}
	if w, width, _ := n.WindowCounts(); w == 0 || width != 100*sim.Millisecond {
		t.Errorf("%d windows spanning %v, want some spanning the 100 ms run", w, width)
	}
}

// A panic in the only busy shard of a window reaches the caller of
// stepTo, on the calling goroutine.
func TestShardPanicInlineWindow(t *testing.T) {
	n, scheds := shardedNet(3)
	scheds[1].After(1, func() { panic("boom in the only busy shard") })
	r := func() (r any) {
		defer func() { r = recover() }()
		n.stepTo(n.peek())
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
		if n.stepTo(n.peek()) != len(scheds) {
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
				n.peek()
				n.stepTo(sim.Time(i + 1))
			}
		})
	}
}
