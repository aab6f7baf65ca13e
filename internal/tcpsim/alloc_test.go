package tcpsim

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func allocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestSteadyStateAllocBudget pins the pooled header-box pattern on the
// TCP send path: once the packet pool is warm, transmitting thousands of
// segments and ACKs must not allocate per packet (the boxes ride the
// recycled packets). The budget leaves headroom for scheduler slot and
// out-of-order map growth, nothing more.
func TestSteadyStateAllocBudget(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddDuplex(a, b, 2*125000, 20*sim.Millisecond, 40)
	snd, snk := NewFlow("flow", net, a, b, 5, DefaultConfig())
	snd.Start()
	sch.RunUntil(10 * sim.Second) // warm up: pools sized, window cycled

	delivered0 := snk.DeliveredPackets
	runtime.GC()
	a0 := allocsNow()
	sch.RunUntil(20 * sim.Second)
	allocs := allocsNow() - a0
	pkts := snk.DeliveredPackets - delivered0
	if pkts < 500 {
		t.Fatalf("steady state moved only %d packets", pkts)
	}
	if budget := uint64(pkts / 10); allocs > budget {
		t.Fatalf("steady-state TCP allocated %d times for %d packets (budget %d): header boxes not pooled?",
			allocs, pkts, budget)
	}
}
