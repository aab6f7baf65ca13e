package tcpsim

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// dumbbell builds a -- r1 -- r2 -- b with the given bottleneck bandwidth
// (bytes/s) on r1->r2 and fast access links.
func dumbbell(bw float64, delay sim.Time, qlen int) (*sim.Scheduler, *simnet.Network, simnet.NodeID, simnet.NodeID) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	b := net.AddNode("b")
	net.AddDuplex(a, r1, 0, sim.Millisecond, 0)
	net.AddDuplex(r1, r2, bw, delay, qlen)
	net.AddDuplex(r2, b, 0, sim.Millisecond, 0)
	return sch, net, a, b
}

func TestBulkTransferSaturatesLink(t *testing.T) {
	// 1 Mbit/s bottleneck = 125000 B/s; over 50s ≈ 6250 packets.
	sch, net, a, b := dumbbell(125000, 10*sim.Millisecond, 30)
	snd, snk := NewFlow("t", net, a, b, 1, DefaultConfig())
	m := stats.NewMeter("tcp", sch, sim.Second)
	snk.Meter = m
	m.Start()
	snd.Start()
	sch.RunUntil(50 * sim.Second)
	mean := m.MeanKbps()
	if mean < 850 || mean > 1020 {
		t.Fatalf("TCP goodput %v Kbit/s, want ~950 on 1 Mbit/s link", mean)
	}
	if snd.Timeouts > 5 {
		t.Fatalf("excessive timeouts on clean link: %d", snd.Timeouts)
	}
}

func TestNoLossNoRetransmits(t *testing.T) {
	// Large queue: no drops, so no retransmissions at all.
	sch, net, a, b := dumbbell(125000, 10*sim.Millisecond, 10000)
	snd, snk := NewFlow("t", net, a, b, 1, DefaultConfig())
	snd.Start()
	sch.RunUntil(20 * sim.Second)
	if snd.Retransmits != 0 || snd.Timeouts != 0 {
		t.Fatalf("unexpected retransmits=%d timeouts=%d", snd.Retransmits, snd.Timeouts)
	}
	if snk.NextExpected() < 1000 {
		t.Fatalf("too little progress: %d", snk.NextExpected())
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	sch, net, a, b := dumbbell(125000, 10*sim.Millisecond, 10000)
	snd, snk := NewFlow("t", net, a, b, 1, DefaultConfig())
	// Drop exactly one packet by briefly setting link loss.
	l := net.LinkBetween(1, 2)
	sch.After(2*sim.Second, func() { l.LossProb = 1 })
	sch.After(2010*sim.Millisecond, func() { l.LossProb = 0 })
	snd.Start()
	sch.RunUntil(10 * sim.Second)
	if snd.FastRecovers == 0 {
		t.Fatal("expected at least one fast recovery")
	}
	if snk.NextExpected() < 500 {
		t.Fatalf("transfer stalled after loss: %d", snk.NextExpected())
	}
}

func TestTimeoutRecoversFromBlackout(t *testing.T) {
	sch, net, a, b := dumbbell(125000, 10*sim.Millisecond, 50)
	snd, snk := NewFlow("t", net, a, b, 1, DefaultConfig())
	l := net.LinkBetween(1, 2)
	sch.After(2*sim.Second, func() { l.LossProb = 1 })
	sch.After(4*sim.Second, func() { l.LossProb = 0 })
	snd.Start()
	sch.RunUntil(20 * sim.Second)
	if snd.Timeouts == 0 {
		t.Fatal("blackout should cause an RTO")
	}
	if snk.NextExpected() < 1000 {
		t.Fatalf("did not recover after blackout: %d", snk.NextExpected())
	}
}

// TestRTOBackoffCapsAtMaxRTO pins the exponential backoff: through a
// long blackout every timeout doubles the wait for the next one until it
// reaches MaxRTO, and from then on timeouts fire exactly MaxRTO apart.
// The flow still recovers once the path returns.
func TestRTOBackoffCapsAtMaxRTO(t *testing.T) {
	const blackoutStart, blackoutEnd = 2 * sim.Second, 400 * sim.Second
	sch, net, a, b := dumbbell(125000, 10*sim.Millisecond, 50)
	snd, snk := NewFlow("t", net, a, b, 1, DefaultConfig())
	var fired []sim.Time
	onTimeout := snd.timeoutFn
	snd.timeoutFn = func(x any) {
		n := snd.Timeouts
		onTimeout(x)
		if snd.Timeouts > n {
			fired = append(fired, sch.Now())
		}
	}
	l := net.LinkBetween(1, 2)
	sch.At(blackoutStart, func() { l.LossProb = 1 })
	sch.At(blackoutEnd, func() { l.LossProb = 0 })
	snd.Start()
	sch.RunUntil(blackoutEnd)

	// The first gap may still end in an ACK that was in flight when the
	// blackout began (a new ACK resets the backoff); from the second on,
	// nothing but the timer runs.
	var gaps []sim.Time
	for i := 1; i < len(fired); i++ {
		gaps = append(gaps, fired[i]-fired[i-1])
	}
	doubled, capped := 0, 0
	for i := 2; i < len(gaps); i++ {
		want := min(2*gaps[i-1], MaxRTO)
		if gaps[i] != want {
			t.Fatalf("timeout gap %d is %v after %v, want %v (gaps %v)", i, gaps[i], gaps[i-1], want, gaps)
		}
		if gaps[i] == MaxRTO {
			capped++
		} else {
			doubled++
		}
	}
	if doubled < 4 || capped < 2 {
		t.Fatalf("blackout saw %d doublings and %d capped gaps, want at least 4 and 2 (gaps %v)", doubled, capped, gaps)
	}

	delivered := snk.NextExpected()
	sch.RunUntil(blackoutEnd + MaxRTO + 20*sim.Second)
	if snk.NextExpected() < delivered+1000 {
		t.Fatalf("did not recover after the blackout: %d -> %d", delivered, snk.NextExpected())
	}
}

func TestCwndHalvesOnCongestion(t *testing.T) {
	sch, net, a, b := dumbbell(125000, 10*sim.Millisecond, 20)
	snd, _ := NewFlow("t", net, a, b, 1, DefaultConfig())
	snd.Start()
	var maxCwnd, afterDrop float64
	sch.After(5*sim.Second, func() { maxCwnd = snd.Cwnd() })
	sch.RunUntil(60 * sim.Second)
	afterDrop = snd.Cwnd()
	if maxCwnd <= 1 || afterDrop <= 0 {
		t.Fatalf("cwnd never grew: %v %v", maxCwnd, afterDrop)
	}
	if snd.FastRecovers == 0 && snd.Timeouts == 0 {
		t.Fatal("small queue should force loss events")
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// Two identical TCPs over an 8 Mbit/s bottleneck should split it
	// roughly evenly (Jain index close to 1).
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(2))
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	net.AddDuplex(r1, r2, 1e6, 20*sim.Millisecond, 80)
	var meters []*stats.Meter
	for i := 0; i < 2; i++ {
		a := net.AddNode("a")
		b := net.AddNode("b")
		net.AddDuplex(a, r1, 0, sim.Millisecond, 0)
		net.AddDuplex(r2, b, 0, sim.Millisecond, 0)
		snd, snk := NewFlow("t", net, a, b, simnet.Port(10+i), DefaultConfig())
		m := stats.NewMeter("t", sch, sim.Second)
		snk.Meter = m
		m.Start()
		snd.Start()
		meters = append(meters, m)
	}
	sch.RunUntil(120 * sim.Second)
	x := []float64{meters[0].MeanKbps(), meters[1].MeanKbps()}
	if idx := stats.JainIndex(x); idx < 0.85 {
		t.Fatalf("unfair split %v (Jain %v)", x, idx)
	}
	total := x[0] + x[1]
	if total < 6500 || total > 8200 {
		t.Fatalf("total goodput %v Kbit/s, want ~7800", total)
	}
}

func TestRandomLossLimitsThroughput(t *testing.T) {
	// With 5% random loss the Padhye model predicts ~450 Kbit/s at
	// RTT ~24ms (1000B packets); TCP should get nowhere near link rate
	// but stay well above zero.
	sch, net, a, b := dumbbell(1.25e6, 10*sim.Millisecond, 100)
	net.LinkBetween(1, 2).LossProb = 0.05
	snd, snk := NewFlow("t", net, a, b, 1, DefaultConfig())
	m := stats.NewMeter("tcp", sch, sim.Second)
	snk.Meter = m
	m.Start()
	snd.Start()
	sch.RunUntil(100 * sim.Second)
	mean := m.MeanKbps()
	if mean < 100 || mean > 3000 {
		t.Fatalf("lossy-path TCP %v Kbit/s, want few hundred", mean)
	}
}

func TestSRTTConverges(t *testing.T) {
	sch, net, a, b := dumbbell(1.25e6, 25*sim.Millisecond, 1000)
	snd, _ := NewFlow("t", net, a, b, 1, DefaultConfig())
	snd.Start()
	sch.RunUntil(10 * sim.Second)
	srtt := snd.SRTT().Seconds()
	// Path RTT: 2*(1+25+1)ms plus queueing.
	if srtt < 0.050 || srtt > 0.6 {
		t.Fatalf("srtt = %v s, want around path RTT", srtt)
	}
}

func TestSinkOutOfOrderReassembly(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddDuplex(a, b, 0, sim.Millisecond, 0)
	var acks []int64
	net.Bind(simnet.Addr{Node: a, Port: 5}, simnet.HandlerFunc(func(p *simnet.Packet) {
		acks = append(acks, p.Payload.(*Ack).CumAck)
	}))
	snk := NewSink(net, simnet.Addr{Node: b, Port: 5}, simnet.Addr{Node: a, Port: 5})
	send := func(seq int64) {
		net.Send(&simnet.Packet{Size: 1000, Src: simnet.Addr{Node: a, Port: 5},
			Dst: simnet.Addr{Node: b, Port: 5}, Payload: &Segment{Seq: seq}})
		sch.Run()
	}
	send(0)
	send(2) // gap
	send(3)
	send(1) // fills the hole
	want := []int64{1, 1, 1, 4}
	if len(acks) != 4 {
		t.Fatalf("acks = %v", acks)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks = %v, want %v", acks, want)
		}
	}
	if snk.NextExpected() != 4 {
		t.Fatalf("next = %d", snk.NextExpected())
	}
}

func TestAIMDSawtooth(t *testing.T) {
	// Sample cwnd over time; the trace should both rise and fall,
	// and mean cwnd should be near the BDP+queue operating point.
	sch, net, a, b := dumbbell(125000, 20*sim.Millisecond, 25)
	snd, _ := NewFlow("t", net, a, b, 1, DefaultConfig())
	snd.Start()
	var w stats.Welford
	rises, falls := 0, 0
	prev := 0.0
	for i := 1; i <= 300; i++ {
		sch.RunUntil(sim.Time(i) * 200 * sim.Millisecond)
		c := snd.Cwnd()
		w.Add(c)
		if c > prev {
			rises++
		} else if c < prev {
			falls++
		}
		prev = c
	}
	if rises < 20 || falls < 3 {
		t.Fatalf("no sawtooth: rises=%d falls=%d", rises, falls)
	}
	if math.IsNaN(w.Mean()) || w.Mean() < 2 {
		t.Fatalf("mean cwnd %v too small", w.Mean())
	}
}

// TestStopStartResumes pins the scenario on/off cross-traffic path: a
// sender stopped with a full window in flight (its in-flight ACKs
// discarded) must resume delivering after Start instead of deadlocking
// on a window that no ACK will ever open.
func TestStopStartResumes(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddDuplex(a, b, 125000, 20*sim.Millisecond, 40)
	snd, snk := NewFlow("flow", net, a, b, 5, DefaultConfig())
	snd.Start()
	sch.RunUntil(10 * sim.Second)
	if snk.DeliveredPackets == 0 {
		t.Fatal("flow never started")
	}

	snd.Stop()
	sch.RunUntil(20 * sim.Second) // in-flight ACKs arrive and are discarded
	paused := snk.DeliveredPackets
	sch.RunUntil(21 * sim.Second)
	if snk.DeliveredPackets != paused {
		t.Fatalf("sender kept transmitting while stopped: %d -> %d", paused, snk.DeliveredPackets)
	}

	snd.Start()
	sch.RunUntil(40 * sim.Second)
	if snk.DeliveredPackets < paused+500 {
		t.Fatalf("flow did not resume after Start: %d -> %d delivered", paused, snk.DeliveredPackets)
	}
}

// TestSinkOutOfOrderMatchesSet drives a sink with random arrival orders,
// repeats included, and checks its cumulative ACK point after every
// segment against a set-based reference: held sequences are delivered as
// soon as the gap below them fills, each exactly once (every step of the
// ACK point is one delivery to the goodput meter). The
// sink is recycled from the arena between rounds, so the later rounds
// run on the storage the earlier ones grew.
func TestSinkOutOfOrderMatchesSet(t *testing.T) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	rng := sim.NewRand(7)
	for round := 0; round < 20; round++ {
		net.Reset()
		a, b := net.AddNode("a"), net.AddNode("b")
		net.AddDuplex(a, b, 0, sim.Millisecond, 0)
		k := NewSink(net, simnet.Addr{Node: b, Port: 1}, simnet.Addr{Node: a, Port: 1})
		held := map[int64]bool{}
		var next int64
		for i := 0; i < 400; i++ {
			// Mostly near next, sometimes several bitmap words ahead.
			seq := next + int64(rng.Intn(8)) - 2
			if rng.Intn(4) == 0 {
				seq = next + int64(rng.Intn(300))
			}
			if seq < 0 {
				seq = 0
			}
			// The reference: the set the sink kept before it held a slice.
			if seq == next {
				next++
				for held[next] {
					delete(held, next)
					next++
				}
			} else if seq > next {
				held[seq] = true
			}
			pkt := &simnet.Packet{Size: 1, Payload: &Segment{Seq: seq}}
			k.Recv(pkt)
			if k.NextExpected() != next || k.DeliveredPackets != int64(i+1) {
				t.Fatalf("round %d segment %d (seq %d): sink at %d, reference %d", round, i, seq, k.NextExpected(), next)
			}
		}
		sch.Run()
	}
}
