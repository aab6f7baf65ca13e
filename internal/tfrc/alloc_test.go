package tfrc

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

// TestSteadyStateAllocBudget pins the pooled *Data/*Feedback header
// boxes on the TFRC path: a warm flow must not allocate per packet. TFRC
// takes its RTT from the sender and never re-aggregates loss events, so
// its receiver keeps no recent-loss store either: a recording estimator
// would split the run's merged loss events at a 1 µs RTT.
func TestSteadyStateAllocBudget(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	down, _ := net.AddDuplex(a, b, 0, 30*sim.Millisecond, 0)
	down.LossProb = 0.01
	snd, rcv := NewFlow(net, a, b, 100)
	snd.Start()
	sch.RunUntil(20 * sim.Second)

	recv0 := rcv.PacketsRecv
	runtime.GC()
	a0 := allocsNow()
	sch.RunUntil(40 * sim.Second)
	allocs := allocsNow() - a0
	pkts := rcv.PacketsRecv - recv0
	if pkts < 200 {
		t.Fatalf("steady state moved only %d packets", pkts)
	}
	if budget := uint64(pkts / 10); allocs > budget {
		t.Fatalf("steady-state TFRC allocated %d times for %d packets (budget %d): header boxes not pooled?",
			allocs, pkts, budget)
	}
	if n := rcv.est.Reaggregate(sim.Microsecond); n != 0 {
		t.Fatalf("after %d losses the receiver re-aggregated %d events from recorded losses", rcv.Losses, n)
	}
}
