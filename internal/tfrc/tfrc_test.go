package tfrc

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tcpsim"
)

func dumbbell(bw float64, delay sim.Time, qlen int, seed int64) (*sim.Scheduler, *simnet.Network, simnet.NodeID, simnet.NodeID) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(seed))
	a := net.AddNode("a")
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	b := net.AddNode("b")
	net.AddDuplex(a, r1, 0, sim.Millisecond, 0)
	net.AddDuplex(r1, r2, bw, delay, qlen)
	net.AddDuplex(r2, b, 0, sim.Millisecond, 0)
	return sch, net, a, b
}

func TestTFRCConvergesToBottleneck(t *testing.T) {
	sch, net, a, b := dumbbell(125000, 20*sim.Millisecond, 30, 1)
	snd, rcv := NewFlow(net, a, b, 1)
	m := stats.NewMeter("tfrc", sch, sim.Second)
	rcv.Meter = m
	m.Start()
	snd.Start()
	sch.RunUntil(120 * sim.Second)
	mean := m.Series.MeanBetween(60*sim.Second, 120*sim.Second)
	if mean < 500 || mean > 1100 {
		t.Fatalf("TFRC alone on 1 Mbit/s: %.0f Kbit/s, want 500-1100", mean)
	}
}

func TestTFRCRateMatchesModelOnLossyLink(t *testing.T) {
	sch, net, a, b := dumbbell(0, 30*sim.Millisecond, 0, 2)
	net.LinkBetween(1, 2).LossProb = 0.02
	snd, rcv := NewFlow(net, a, b, 1)
	m := stats.NewMeter("tfrc", sch, sim.Second)
	rcv.Meter = m
	m.Start()
	snd.Start()
	sch.RunUntil(180 * sim.Second)
	mean := m.Series.MeanBetween(90*sim.Second, 180*sim.Second) * 1000 / 8 // bytes/s
	model := model.Throughput(0.02, 0.064)
	if mean < model*0.4 || mean > model*2.0 {
		t.Fatalf("TFRC rate %.0f B/s vs model %.0f B/s", mean, model)
	}
}

func TestTFRCSlowstartExitsOnLoss(t *testing.T) {
	sch, net, a, b := dumbbell(125000, 20*sim.Millisecond, 20, 3)
	snd, _ := NewFlow(net, a, b, 1)
	snd.Start()
	sch.RunUntil(60 * sim.Second)
	if snd.InSlowstart() {
		t.Fatal("TFRC slowstart should terminate once the bottleneck fills")
	}
}

func TestTFRCSharesWithTCP(t *testing.T) {
	sch, net, a, b := dumbbell(1e6, 20*sim.Millisecond, 80, 4)
	snd, rcv := NewFlow(net, a, b, 1)
	m := stats.NewMeter("tfrc", sch, sim.Second)
	rcv.Meter = m
	m.Start()
	snd.Start()
	var tcpMeters []*stats.Meter
	for i := 0; i < 7; i++ {
		x := net.AddNode("x")
		y := net.AddNode("y")
		net.AddDuplex(x, 1, 0, sim.Millisecond, 0)
		net.AddDuplex(2, y, 0, sim.Millisecond, 0)
		ts, tk := tcpsim.NewFlow("t", net, x, y, simnet.Port(10+i), tcpsim.DefaultConfig())
		tm := stats.NewMeter("tcp", sch, sim.Second)
		tk.Meter = tm
		tm.Start()
		ts.Start()
		tcpMeters = append(tcpMeters, tm)
	}
	sch.RunUntil(200 * sim.Second)
	var tcpSum float64
	for _, tm := range tcpMeters {
		tcpSum += tm.Series.MeanBetween(80*sim.Second, 200*sim.Second)
	}
	tcpMean := tcpSum / 7
	tfrc := m.Series.MeanBetween(80*sim.Second, 200*sim.Second)
	ratio := tfrc / tcpMean
	if ratio < 0.4 || ratio > 2.2 {
		t.Fatalf("TFRC/TCP ratio = %.2f (tfrc %.0f, tcp %.0f)", ratio, tfrc, tcpMean)
	}
	// TFRC's selling point: smoother than TCP.
	if m.Series.CoV() > tcpMeters[0].Series.CoV()*1.2 {
		t.Fatalf("TFRC not smoother: CoV %.2f vs TCP %.2f",
			m.Series.CoV(), tcpMeters[0].Series.CoV())
	}
}

func TestTFRCNoFeedbackHalvesRate(t *testing.T) {
	sch, net, a, b := dumbbell(125000, 20*sim.Millisecond, 30, 5)
	snd, _ := NewFlow(net, a, b, 1)
	snd.Start()
	sch.RunUntil(60 * sim.Second)
	before := snd.Rate()
	// Sever the reverse path: reports stop, rate must decay.
	net.LinkBetween(3, 2).LossProb = 1
	sch.RunUntil(70 * sim.Second)
	if snd.Rate() > before/2 {
		t.Fatalf("no-feedback timer did not halve the rate: %.0f -> %.0f", before, snd.Rate())
	}
}

func TestTFRCRTTEstimate(t *testing.T) {
	sch, net, a, b := dumbbell(1.25e6, 25*sim.Millisecond, 100, 6)
	snd, _ := NewFlow(net, a, b, 1)
	snd.Start()
	sch.RunUntil(30 * sim.Second)
	rtt := snd.RTT().Seconds()
	if rtt < 0.045 || rtt > 0.30 {
		t.Fatalf("TFRC RTT estimate %.3fs, want around path RTT (~54ms+queue)", rtt)
	}
}
