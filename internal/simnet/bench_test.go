package simnet

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkUnicastHop measures the per-packet cost of a queued link.
func BenchmarkUnicastHop(b *testing.B) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	c := net.AddNode("b")
	net.AddDuplex(a, c, 1e9, sim.Millisecond, 1000)
	net.Bind(Addr{c, 1}, HandlerFunc(func(*Packet) {}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := net.AllocPacket()
		pkt.Size = 1000
		pkt.Src = Addr{a, 1}
		pkt.Dst = Addr{c, 1}
		net.Send(pkt)
		sch.Run()
	}
	sec := b.Elapsed().Seconds()
	b.ReportAllocs()
	b.ReportMetric(float64(b.N)/sec, "packets/sec")
	b.ReportMetric(float64(sch.Processed())/sec, "events/sec")
}

// BenchmarkMulticastFanout100 measures delivering one packet to 100
// receivers over infinite-speed star links.
func BenchmarkMulticastFanout100(b *testing.B) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(1))
	src := net.AddNode("src")
	hub := net.AddNode("hub")
	net.AddDuplex(src, hub, 0, sim.Millisecond, 0)
	const g = GroupID(1)
	for i := 0; i < 100; i++ {
		r := net.AddNode("r")
		net.AddDuplex(hub, r, 0, sim.Millisecond, 0)
		net.Bind(Addr{r, 1}, HandlerFunc(func(*Packet) {}))
		net.Join(g, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := net.AllocPacket()
		pkt.Size = 1000
		pkt.Src = Addr{src, 1}
		pkt.Dst = Addr{Port: 1}
		pkt.Group = g
		pkt.IsMcast = true
		net.Send(pkt)
		sch.Run()
	}
	sec := b.Elapsed().Seconds()
	b.ReportAllocs()
	b.ReportMetric(float64(b.N)*100/sec, "deliveries/sec")
	b.ReportMetric(float64(sch.Processed())/sec, "events/sec")
}

func BenchmarkDropTail(b *testing.B) {
	b.ReportAllocs()
	q := NewDropTail(64)
	p := &Packet{Size: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p, 0)
		q.Dequeue(0)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
}

func BenchmarkRouteComputation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sch := sim.NewScheduler()
		net := New(sch, sim.NewRand(1))
		// A 100-node chain with cross links.
		prev := net.AddNode("n0")
		for j := 1; j < 100; j++ {
			n := net.AddNode("n")
			net.AddDuplex(prev, n, 0, sim.Millisecond, 0)
			prev = n
		}
		net.Send(&Packet{Size: 1, Src: Addr{0, 1}, Dst: Addr{99, 1}})
		sch.Run()
	}
	b.ReportAllocs()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rebuilds/sec")
}
