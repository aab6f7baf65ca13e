package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// batchModeRun drives a fixed packet stream over an impaired link on
// the coalesced-ring delivery path (on) or the timer-per-packet oracle
// and returns the arrival trace plus fault stats. The stream
// deliberately mixes back-to-back sends (which share a ring and a single
// armed timer) with reordering, so out-of-order ring appends take the
// fallback path too.
func batchModeRun(on bool, seed int64) (string, LinkStats, *Network) {
	sch := sim.NewScheduler()
	net := newTestNet(!on, sch, sim.NewRand(seed))
	a, b := net.AddNode("a"), net.AddNode("b")
	l, _ := net.AddDuplex(a, b, 1e6, 5*sim.Millisecond, 50)
	l.SetImpairments(0.1, 0.15, 0.3, 20*sim.Millisecond)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	for i := 0; i < 300; i++ {
		at := sim.Time(i/3) * sim.Millisecond // three same-instant sends per step
		sch.At(at, func() {
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

// TestImpairedDeliveryBatchIdentity: with corruption, duplication and
// reordering all active, the coalesced per-link ring must reproduce the
// timer-per-packet delivery order and fault draws byte for byte.
func TestImpairedDeliveryBatchIdentity(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		on, onStats, net := batchModeRun(true, seed)
		off, offStats, oracle := batchModeRun(false, seed)
		if on != off {
			t.Fatalf("seed %d: delivery trace differs between link rings and the timer-per-packet oracle", seed)
		}
		requireOracleSplit(t, net, oracle, false)
		if onStats != offStats {
			t.Fatalf("seed %d: link stats differ: %+v vs %+v", seed, onStats, offStats)
		}
		if onStats.Corrupted == 0 || onStats.Duplicated == 0 || onStats.Reordered == 0 {
			t.Fatalf("seed %d: impairment modules never fired: %+v", seed, onStats)
		}
		if held := net.RingHeld(); held != 0 {
			t.Fatalf("seed %d: %d packets still held in link rings after drain", seed, held)
		}
		if live := net.LivePackets(); live != 0 {
			t.Fatalf("seed %d: pool conservation broken: %d packets live", seed, live)
		}
	}
}

// TestBatchRingSurvivesReset: rings must be cleared by Reset so a
// rewound arena cannot deliver a stale packet from the previous run.
func TestBatchRingSurvivesReset(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(3))
	net.EnableReuse()
	a, b := net.AddNode("a"), net.AddNode("b")
	net.AddDuplex(a, b, 1e6, 5*sim.Millisecond, 50)
	delivered := 0
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { delivered++ }))
	// Two back-to-back sends: the first arrival rides the armed timer
	// directly, the second parks in the ring behind it.
	net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.RunUntil(sim.Millisecond) // packets are in flight, ring non-empty
	if net.RingHeld() == 0 {
		t.Fatal("setup: expected an in-flight ring entry")
	}
	sch.Reset()
	if !net.Reset() {
		t.Fatal("Reset refused on a reusable network")
	}
	if net.RingHeld() != 0 {
		t.Fatalf("Reset left %d ring entries", net.RingHeld())
	}
	sch.Run()
	if delivered != 0 {
		t.Fatalf("stale ring entry delivered %d packets after Reset", delivered)
	}
	if net.LivePackets() != 0 {
		t.Fatalf("Reset leaked %d live packets", net.LivePackets())
	}
}

// TestRingYieldsToInterleavedEvent: two arrivals due on one link at the
// same instant with an unrelated event scheduled between them. The second
// arrival is parked on the ring behind the first one's timer and must not
// be drained inline past the event whose seq precedes its own — the order
// is the timer-per-packet oracle's, arrival, event, arrival.
func TestRingYieldsToInterleavedEvent(t *testing.T) {
	const want = "pkt1 event pkt2 "
	for _, oracle := range []bool{false, true} {
		sch := sim.NewScheduler()
		net := newTestNet(oracle, sch, sim.NewRand(1))
		a, b := net.AddNode("a"), net.AddNode("b")
		net.AddLink(a, b, 0, 5*sim.Millisecond, 0)
		var trace string
		net.Bind(Addr{b, 1}, HandlerFunc(func(p *Packet) { trace += fmt.Sprintf("pkt%d ", p.Size) }))
		net.Send(&Packet{Size: 1, Src: Addr{a, 1}, Dst: Addr{b, 1}})
		sch.At(5*sim.Millisecond, func() { trace += "event " })
		net.Send(&Packet{Size: 2, Src: Addr{a, 1}, Dst: Addr{b, 1}})
		if held := net.RingHeld(); (held == 0) != oracle {
			t.Fatalf("oracle=%v: %d arrivals parked on the ring after two sends", oracle, held)
		}
		sch.Run()
		if trace != want {
			t.Errorf("oracle=%v: order %q, want %q", oracle, trace, want)
		}
	}
}
