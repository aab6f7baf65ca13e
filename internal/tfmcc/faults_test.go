package tfmcc

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Fault-injection tests: TFMCC's failure mode must always be a lower-
// than-desired rate, never an implosion or a runaway rate (paper §6).

func TestPartitionAndRejoin(t *testing.T) {
	cfg := DefaultConfig()
	sch, net, sess := singleBottleneck(4, 125000, 20*sim.Millisecond, 30, cfg, 21)
	sess.Start()
	sch.RunUntil(60 * sim.Second)
	healthy := sess.Sender.Rate()

	// Partition the bottleneck completely for 20 s.
	l1 := net.LinkBetween(1, 2)
	l2 := net.LinkBetween(2, 1)
	l1.LossProb, l2.LossProb = 1, 1
	sch.RunUntil(80 * sim.Second)
	// Without CLR feedback the rate must not increase.
	if sess.Sender.Rate() > healthy*1.05 {
		t.Fatalf("rate rose during partition: %.0f -> %.0f", healthy, sess.Sender.Rate())
	}

	l1.LossProb, l2.LossProb = 0, 0
	sch.RunUntil(220 * sim.Second)
	// Recovery to a reasonable share of the bottleneck.
	if sess.Sender.Rate() < 125000*0.15 {
		t.Fatalf("no recovery after partition: %.0f B/s", sess.Sender.Rate())
	}
}

func TestAllReceiversLeave(t *testing.T) {
	cfg := DefaultConfig()
	sch, _, sess := singleBottleneck(3, 125000, 20*sim.Millisecond, 30, cfg, 22)
	sess.Start()
	sch.RunUntil(60 * sim.Second)
	for _, r := range sess.Receivers {
		r.Leave()
	}
	rateAtLeave := sess.Sender.Rate()
	sch.RunUntil(120 * sim.Second)
	// No feedback => no increase (the safe failure mode).
	if sess.Sender.Rate() > rateAtLeave*1.05 {
		t.Fatalf("rate rose with zero receivers: %.0f -> %.0f", rateAtLeave, sess.Sender.Rate())
	}
}

func TestReportPathLossDoesNotStall(t *testing.T) {
	// 30% loss on the CLR's report path: TFMCC is designed to tolerate
	// lost receiver reports (Figure 19's claim).
	cfg := DefaultConfig()
	sch, net, sess := singleBottleneck(2, 125000, 20*sim.Millisecond, 30, cfg, 23)
	// Reverse direction of receiver 0's access link.
	net.LinkBetween(3, 2).LossProb = 0.3
	net.LinkBetween(4, 2).LossProb = 0.3
	m := stats.NewMeter("tfmcc", sch, sim.Second)
	sess.Receivers[0].Meter = m
	m.Start()
	sess.Start()
	sch.RunUntil(120 * sim.Second)
	mean := m.Series.MeanBetween(60*sim.Second, 120*sim.Second)
	if mean < 300 {
		t.Fatalf("throughput collapsed under report loss: %.0f Kbit/s", mean)
	}
}

func TestTwoTFMCCSessionsShare(t *testing.T) {
	// Intra-protocol fairness: two TFMCC sessions over one bottleneck
	// should split it roughly evenly.
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(24))
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	net.AddDuplex(r1, r2, 250000, 20*sim.Millisecond, 50)
	var meters []*stats.Meter
	for i := 0; i < 2; i++ {
		snd := net.AddNode("src")
		net.AddDuplex(snd, r1, 0, sim.Millisecond, 0)
		sess := NewSession(net, snd, simnet.GroupID(i+1), simnet.Port(100+i),
			DefaultConfig(), sim.NewRand(int64(30+i)))
		leaf := net.AddNode("leaf")
		net.AddDuplex(r2, leaf, 0, sim.Millisecond, 0)
		rcv := sess.AddReceiver(leaf)
		m := stats.NewMeter("tfmcc", sch, sim.Second)
		rcv.Meter = m
		m.Start()
		meters = append(meters, m)
		sess.Start()
	}
	sch.RunUntil(300 * sim.Second)
	a := meters[0].Series.MeanBetween(120*sim.Second, 300*sim.Second)
	b := meters[1].Series.MeanBetween(120*sim.Second, 300*sim.Second)
	if idx := stats.JainIndex([]float64{a, b}); idx < 0.75 {
		t.Fatalf("intra-protocol unfairness: %.0f vs %.0f Kbit/s (Jain %.2f)", a, b, idx)
	}
}

func TestManyReceiversJoinSimultaneously(t *testing.T) {
	// A flash crowd: 200 receivers join an established session at once.
	cfg := DefaultConfig()
	sch, net, sess := singleBottleneck(2, 125000, 20*sim.Millisecond, 30, cfg, 25)
	sess.Start()
	sch.RunUntil(60 * sim.Second)
	reportsBefore := sess.Sender.ReportsRecv
	r2 := simnet.NodeID(2)
	for i := 0; i < 200; i++ {
		leaf := net.AddNode("flash")
		net.AddDuplex(r2, leaf, 0, sim.Time(2+i%40)*sim.Millisecond, 0)
		sess.AddReceiver(leaf)
	}
	sch.RunUntil(120 * sim.Second)
	// Feedback must stay bounded: well under 1 report per receiver per
	// round despite 200 new members.
	rounds := float64(sess.Sender.Round())
	perRound := float64(sess.Sender.ReportsRecv-reportsBefore) / (rounds / 2)
	if perRound > 60 {
		t.Fatalf("flash crowd caused feedback surge: %.1f reports/round", perRound)
	}
	// The session must still be transmitting sensibly.
	if sess.Sender.Rate() < MinRate {
		t.Fatal("rate collapsed below floor")
	}
}

func TestCrashingCLRNeverRaisesRateUnsafely(t *testing.T) {
	// When the CLR silently dies, the rate may only increase after the
	// timeout, and then only via the additive-increase ramp.
	cfg := DefaultConfig()
	loss := []float64{0.08, 0.01}
	delay := []sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond}
	sch, net, sess := starLossy(loss, delay, cfg, 26)
	sess.Start()
	sch.RunUntil(90 * sim.Second)
	if sess.Sender.CLR() != 0 {
		t.Skipf("CLR = %v, scenario needs receiver 0", sess.Sender.CLR())
	}
	rate0 := sess.Sender.Rate()
	authorized := sess.Sender.target // the dead CLR's last reported rate
	if rate0 > authorized {
		authorized = rate0
	}
	hub := simnet.NodeID(1)
	dead := simnet.NodeID(2)
	net.LinkBetween(hub, dead).LossProb = 1
	net.LinkBetween(dead, hub).LossProb = 1
	// Until the CLR timeout (10 feedback rounds; rounds are ~4 RTTs once
	// RTTs are measured, so well under a second here) the rate may finish
	// ramping to the last CLR-authorised target but must never exceed it.
	preTimeout := 90*sim.Second + sess.Sender.roundT.Scale(5)
	sch.RunUntil(preTimeout)
	if sess.Sender.CLR() == 0 && sess.Sender.Rate() > authorized*1.01 {
		t.Fatalf("rate exceeded the dead CLR's authorisation: %.0f > %.0f",
			sess.Sender.Rate(), authorized)
	}
	// After the timeout a new CLR is adopted and the rate ramps with the
	// additive-increase cap; it must not jump discontinuously. Sample the
	// rate each 100 ms and verify the per-RTT step bound.
	prev := sess.Sender.Rate()
	maxStep := float64(PacketSize) / 0.06 * (0.1 / 0.06) * 1.5
	for i := 0; i < 50; i++ {
		sch.RunUntil(sch.Now() + 100*sim.Millisecond)
		now := sess.Sender.Rate()
		if now > prev+maxStep {
			t.Fatalf("rate jumped %.0f -> %.0f in 100ms (cap %.0f/step)", prev, now, maxStep)
		}
		prev = now
	}
}

func TestSilenceHalvingAfterCrash(t *testing.T) {
	// With HalveOnSilence on, crashing every receiver must walk the rate
	// down by half per feedback round once the CLR times out, and floor at
	// MinRate — the paper's no-feedback failure mode.
	cfg := DefaultConfig()
	cfg.HalveOnSilence = true
	sch, _, sess := singleBottleneck(3, 125000, 20*sim.Millisecond, 30, cfg, 27)
	sess.Start()
	sch.RunUntil(60 * sim.Second)
	rateAtCrash := sess.Sender.Rate()
	for _, r := range sess.Receivers {
		r.Crash()
	}
	sch.RunUntil(200 * sim.Second)
	if sess.Sender.SilenceHalvings == 0 {
		t.Fatal("no silence halvings despite every receiver crashing")
	}
	if got := sess.Sender.Rate(); got > rateAtCrash/2 {
		t.Fatalf("rate %.0f did not degrade after total crash (was %.0f)", got, rateAtCrash)
	}
	if got := sess.Sender.Rate(); got < MinRate {
		t.Fatalf("rate %.0f fell below MinRate %.0f", got, MinRate)
	}
	// Crash, unlike Leave, sends nothing.
	for i, r := range sess.Receivers {
		if !r.crashed || !r.left {
			t.Fatalf("receiver %d not marked crashed+left", i)
		}
	}
}

func TestCLRCrashReelectsSurvivor(t *testing.T) {
	// Crash only the CLR: the sender must re-elect a surviving receiver
	// after the CLR timeout and keep transmitting at a sane rate, with
	// HalveOnSilence enabled (the failure mode must not prevent recovery).
	cfg := DefaultConfig()
	cfg.HalveOnSilence = true
	loss := []float64{0.08, 0.01}
	delay := []sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond}
	sch, _, sess := starLossy(loss, delay, cfg, 28)
	sess.Start()
	sch.RunUntil(90 * sim.Second)
	if sess.Sender.CLR() != 0 {
		t.Skipf("CLR = %v, scenario needs receiver 0", sess.Sender.CLR())
	}
	sess.Receivers[0].Crash()
	sch.RunUntil(220 * sim.Second)
	if clr := sess.Sender.CLR(); clr != 1 {
		t.Fatalf("CLR after crash = %v, want survivor 1", clr)
	}
	if got := sess.Sender.Rate(); got < MinRate {
		t.Fatalf("no recovery after CLR crash: rate %.0f", got)
	}
	if v := sess.CLRInvariant(); v != "" {
		t.Fatalf("CLR invariant violated after recovery: %s", v)
	}
}

func TestMalformedReportsDiscarded(t *testing.T) {
	// Corrupted reports — nonsense rates, bogus IDs, stale rounds — must
	// be counted and dropped before they touch CLR or rate state.
	cfg := DefaultConfig()
	sch, net, sess := singleBottleneck(2, 125000, 20*sim.Millisecond, 30, cfg, 29)
	sess.Start()
	sch.RunUntil(30 * sim.Second)
	snd := sess.Sender
	clrBefore := snd.CLR()
	rateBefore := snd.Rate()
	bad := []Report{
		{From: -3, Rate: 1000, Round: snd.Round()},
		{From: 0, Rate: 0, Round: snd.Round()},
		{From: 0, Rate: -50, Round: snd.Round()},
		{From: 0, Rate: math.NaN(), Round: snd.Round()},
		{From: 0, Rate: math.Inf(1), Round: snd.Round()},
		{From: 0, Rate: 1000, Round: snd.Round() + 3},
		{From: 0, Rate: 1000, Round: snd.Round() - staleReportRounds - 1},
	}
	for i := range bad {
		pkt := net.AllocPacket()
		*reportBox(pkt) = bad[i]
		snd.Recv(pkt)
		net.ReleasePacket(pkt)
	}
	if snd.ReportsDiscarded != int64(len(bad)) {
		t.Fatalf("ReportsDiscarded = %d, want %d", snd.ReportsDiscarded, len(bad))
	}
	if snd.CLR() != clrBefore || snd.Rate() != rateBefore {
		t.Fatal("a discarded report moved CLR or rate state")
	}
}

func TestStaleDataDiscardedByReceiver(t *testing.T) {
	// Receivers must ignore data packets carrying impossible or long-stale
	// header state rather than folding it into their estimators.
	cfg := DefaultConfig()
	sch, net, sess := singleBottleneck(1, 125000, 20*sim.Millisecond, 30, cfg, 30)
	sess.Start()
	sch.RunUntil(30 * sim.Second)
	r := sess.Receivers[0]
	recvBefore := r.Stats().PacketsRecv
	bad := []Data{
		{Seq: -1, Rate: 1000, Round: r.round},
		{Seq: 1, Rate: -5, Round: r.round},
		{Seq: 1, Rate: math.NaN(), Round: r.round},
		{Seq: 1, Rate: 1000, Round: r.round - staleDataRounds - 1},
	}
	for i := range bad {
		pkt := net.AllocPacket()
		d, ok := pkt.Payload.(*Data)
		if !ok {
			d = new(Data)
			pkt.Payload = d
		}
		*d = bad[i]
		r.Recv(pkt)
		net.ReleasePacket(pkt)
	}
	if r.StaleDiscards != int64(len(bad)) {
		t.Fatalf("StaleDiscards = %d, want %d", r.StaleDiscards, len(bad))
	}
	if r.Stats().PacketsRecv != recvBefore {
		t.Fatal("a discarded data packet was counted as received")
	}
	_ = sch
}
