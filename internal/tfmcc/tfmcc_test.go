package tfmcc

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// singleBottleneck builds sender -- r1 ==bw== r2 -- {receivers} with a
// shared bottleneck and fast tails, and returns the session.
func singleBottleneck(nRecv int, bw float64, delay sim.Time, qlen int, cfg Config, seed int64) (*sim.Scheduler, *simnet.Network, *Session) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(seed))
	snd := net.AddNode("sender")
	r1 := net.AddNode("r1")
	r2 := net.AddNode("r2")
	net.AddDuplex(snd, r1, 0, sim.Millisecond, 0)
	net.AddDuplex(r1, r2, bw, delay, qlen)
	sess := NewSession(net, snd, 1, 100, cfg, sim.NewRand(seed+1))
	for i := 0; i < nRecv; i++ {
		n := net.AddNode("rcv")
		net.AddDuplex(r2, n, 0, sim.Millisecond, 0)
		sess.AddReceiver(n)
	}
	return sch, net, sess
}

// starLossy builds a star where each receiver sits behind its own
// infinite-speed lossy link with the given per-receiver loss and delay.
func starLossy(loss []float64, delay []sim.Time, cfg Config, seed int64) (*sim.Scheduler, *simnet.Network, *Session) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(seed))
	snd := net.AddNode("sender")
	hub := net.AddNode("hub")
	net.AddDuplex(snd, hub, 0, sim.Millisecond, 0)
	sess := NewSession(net, snd, 1, 100, cfg, sim.NewRand(seed+1))
	for i := range loss {
		n := net.AddNode("rcv")
		down, _ := net.AddDuplex(hub, n, 0, delay[i], 0)
		down.LossProb = loss[i]
		sess.AddReceiver(n)
	}
	return sch, net, sess
}

func TestSlowstartRampsUp(t *testing.T) {
	cfg := DefaultConfig()
	// 1 Mbit/s bottleneck.
	sch, _, sess := singleBottleneck(4, 125000, 20*sim.Millisecond, 30, cfg, 1)
	sess.Start()
	if !sess.Sender.InSlowstart() {
		t.Fatal("sender should start in slowstart")
	}
	sch.RunUntil(30 * sim.Second)
	if sess.Sender.InSlowstart() {
		t.Fatal("slowstart should terminate once the bottleneck fills")
	}
	// Rate should approach the bottleneck within a factor of ~2.
	rate := sess.Sender.Rate()
	if rate < 125000*0.2 || rate > 125000*2.5 {
		t.Fatalf("rate after slowstart = %.0f B/s, want near 125000", rate)
	}
}

func TestCLRSelectedAfterLoss(t *testing.T) {
	cfg := DefaultConfig()
	sch, _, sess := singleBottleneck(4, 125000, 20*sim.Millisecond, 30, cfg, 2)
	sess.Start()
	sch.RunUntil(40 * sim.Second)
	if sess.Sender.CLR() == noReceiver {
		t.Fatal("a CLR should have been selected")
	}
	if sess.Sender.CLRChanges == 0 {
		t.Fatal("CLRChanges should be counted")
	}
}

func TestRateConvergesToBottleneck(t *testing.T) {
	cfg := DefaultConfig()
	sch, _, sess := singleBottleneck(8, 125000, 20*sim.Millisecond, 30, cfg, 3)
	m := stats.NewMeter("tfmcc", sch, sim.Second)
	sess.Receivers[0].Meter = m
	m.Start()
	sess.Start()
	sch.RunUntil(120 * sim.Second)
	// Steady-state goodput should be in the vicinity of the 1 Mbit/s
	// bottleneck (alone on the link it should mostly fill it).
	mean := m.Series.MeanBetween(60*sim.Second, 120*sim.Second)
	if mean < 500 || mean > 1100 {
		t.Fatalf("steady-state TFMCC rate = %.0f Kbit/s, want 500-1100", mean)
	}
}

func TestLowestRateReceiverBecomesCLR(t *testing.T) {
	cfg := DefaultConfig()
	// Receiver 3 has by far the worst loss.
	loss := []float64{0.001, 0.005, 0.01, 0.10}
	delay := []sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond, 30 * sim.Millisecond, 30 * sim.Millisecond}
	sch, _, sess := starLossy(loss, delay, cfg, 4)
	sess.Start()
	sch.RunUntil(120 * sim.Second)
	if got := sess.Sender.CLR(); got != 3 {
		t.Fatalf("CLR = %v, want the 10%%-loss receiver (3)", got)
	}
}

func TestRateMatchesModelOnLossyPath(t *testing.T) {
	cfg := DefaultConfig()
	loss := []float64{0.05}
	delay := []sim.Time{30 * sim.Millisecond}
	sch, _, sess := starLossy(loss, delay, cfg, 5)
	m := stats.NewMeter("tfmcc", sch, sim.Second)
	sess.Receivers[0].Meter = m
	m.Start()
	sess.Start()
	sch.RunUntil(180 * sim.Second)
	mean := m.Series.MeanBetween(60*sim.Second, 180*sim.Second) // Kbit/s
	// Padhye model at p=5%, RTT=62ms: X ≈ 53 KB/s ≈ 420 Kbit/s. The
	// delivered rate is (1-p) of the sending rate. Accept a wide band —
	// the loss-event rate differs from the packet loss rate.
	model := cfg.Model.Throughput(0.05, 0.062) * 8 / 1000
	if mean < model*0.4 || mean > model*2.5 {
		t.Fatalf("TFMCC rate %.0f Kbit/s vs model %.0f Kbit/s", mean, model)
	}
}

func TestReceiversMeasureRTT(t *testing.T) {
	cfg := DefaultConfig()
	sch, _, sess := singleBottleneck(8, 125000, 20*sim.Millisecond, 30, cfg, 6)
	sess.Start()
	sch.RunUntil(60 * sim.Second)
	if got := sess.ValidRTTCount(); got < 4 {
		t.Fatalf("only %d/8 receivers measured RTT after 60s", got)
	}
	// Estimates should be near the true RTT (~44ms + queueing) and far
	// below the 500ms initial value.
	for i, r := range sess.Receivers {
		if !r.HasValidRTT() {
			continue
		}
		if rtt := r.rtte.RTT(); rtt > 300*sim.Millisecond || rtt < 20*sim.Millisecond {
			t.Fatalf("receiver %d RTT = %v, implausible", i, rtt)
		}
	}
}

func TestFeedbackNoImplosion(t *testing.T) {
	cfg := DefaultConfig()
	sch, _, sess := singleBottleneck(100, 125000, 20*sim.Millisecond, 30, cfg, 7)
	sess.Start()
	sch.RunUntil(60 * sim.Second)
	total := int64(0)
	for _, r := range sess.Receivers {
		total += r.Stats().ReportsSent
	}
	perRound := float64(total) / float64(sess.Sender.Round())
	// With 100 equally-congested receivers, suppression must keep
	// feedback to a handful per round (plus the CLR's per-RTT reports).
	if perRound > 30 {
		t.Fatalf("feedback implosion: %.1f reports/round", perRound)
	}
	if total == 0 {
		t.Fatal("no feedback at all")
	}
}

func TestCLRLeaveTriggersReselection(t *testing.T) {
	cfg := DefaultConfig()
	loss := []float64{0.10, 0.01, 0.01}
	delay := []sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond, 30 * sim.Millisecond}
	sch, _, sess := starLossy(loss, delay, cfg, 8)
	sess.Start()
	sch.RunUntil(90 * sim.Second)
	if sess.Sender.CLR() != 0 {
		t.Fatalf("CLR = %v, want the lossy receiver 0", sess.Sender.CLR())
	}
	rateBefore := sess.Sender.Rate()
	sess.Receivers[0].Leave()
	sch.RunUntil(180 * sim.Second)
	if got := sess.Sender.CLR(); got == 0 {
		t.Fatal("CLR should have moved off the departed receiver")
	}
	if sess.Sender.Rate() <= rateBefore {
		t.Fatalf("rate should increase after the worst receiver leaves: %.0f -> %.0f",
			rateBefore, sess.Sender.Rate())
	}
}

func TestCLRTimeoutWithoutLeaveMessage(t *testing.T) {
	cfg := DefaultConfig()
	loss := []float64{0.10, 0.01}
	delay := []sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond}
	sch, net, sess := starLossy(loss, delay, cfg, 9)
	sess.Start()
	sch.RunUntil(90 * sim.Second)
	if sess.Sender.CLR() != 0 {
		t.Fatalf("CLR = %v, want 0", sess.Sender.CLR())
	}
	// Receiver 0 crashes: sever its link silently (100% loss both ways).
	hub := simnet.NodeID(1)
	rcv0 := simnet.NodeID(2)
	net.LinkBetween(hub, rcv0).LossProb = 1
	net.LinkBetween(rcv0, hub).LossProb = 1
	sch.RunUntil(400 * sim.Second)
	if got := sess.Sender.CLR(); got == 0 {
		t.Fatal("CLR timeout should have dropped the unreachable receiver")
	}
}

func TestSenderRateNeverBelowFloor(t *testing.T) {
	cfg := DefaultConfig()
	loss := []float64{0.6} // catastrophic loss
	delay := []sim.Time{30 * sim.Millisecond}
	sch, _, sess := starLossy(loss, delay, cfg, 10)
	sess.Start()
	sch.RunUntil(120 * sim.Second)
	if sess.Sender.Rate() < cfg.MinRate {
		t.Fatalf("rate %.1f below floor %.1f", sess.Sender.Rate(), cfg.MinRate)
	}
}

func TestIncreaseLimitedAfterCLRChange(t *testing.T) {
	// After the CLR leaves, the rate must ramp, not jump, to the new
	// CLR's rate (one packet per RTT).
	cfg := DefaultConfig()
	loss := []float64{0.15, 0.01}
	delay := []sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond}
	sch, _, sess := starLossy(loss, delay, cfg, 11)
	sess.Start()
	sch.RunUntil(90 * sim.Second)
	rateBefore := sess.Sender.Rate()
	sess.Receivers[0].Leave()
	// Additive increase of one packet per RTT means growth per second is
	// bounded by s/RTT² (plus slack for RTT underestimates). Check a few
	// instants shortly after the leave.
	rttSec := 0.060
	for _, dt := range []float64{0.25, 0.5, 1.0} {
		sch.RunUntil(90*sim.Second + sim.FromSeconds(dt))
		rateNow := sess.Sender.Rate()
		bound := rateBefore + dt*float64(cfg.PacketSize)/(rttSec*rttSec)*2
		if rateNow > bound {
			t.Fatalf("rate %.0f at +%.2fs exceeds additive-increase bound %.0f", rateNow, dt, bound)
		}
	}
}

func TestSlowstartTerminatesOnFirstLoss(t *testing.T) {
	cfg := DefaultConfig()
	sch, _, sess := singleBottleneck(2, 125000, 20*sim.Millisecond, 20, cfg, 12)
	var exitRate float64
	sess.Start()
	for i := 1; i <= 600 && sess.Sender.InSlowstart(); i++ {
		sch.RunUntil(sim.Time(i) * 100 * sim.Millisecond)
		exitRate = sess.Sender.Rate()
	}
	if sess.Sender.InSlowstart() {
		t.Fatal("slowstart never terminated")
	}
	// Max slowstart rate must stay below ~2x bottleneck + slack.
	if exitRate > 2.6*125000 {
		t.Fatalf("slowstart overshoot: %.0f B/s on a 125000 B/s link", exitRate)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, int64, ReceiverID) {
		cfg := DefaultConfig()
		sch, _, sess := singleBottleneck(8, 125000, 20*sim.Millisecond, 30, cfg, 42)
		sess.Start()
		sch.RunUntil(60 * sim.Second)
		return sess.Sender.Rate(), sess.Sender.PacketsSent, sess.Sender.CLR()
	}
	r1, p1, c1 := run()
	r2, p2, c2 := run()
	if r1 != r2 || p1 != p2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%v,%v) vs (%v,%v,%v)", r1, p1, c1, r2, p2, c2)
	}
}

func TestReportEligibility(t *testing.T) {
	// A receiver with no loss on an uncongested path should send little
	// or no feedback in steady state.
	cfg := DefaultConfig()
	loss := []float64{0.05, 0.0}
	delay := []sim.Time{30 * sim.Millisecond, 30 * sim.Millisecond}
	sch, _, sess := starLossy(loss, delay, cfg, 14)
	sess.Start()
	sch.RunUntil(120 * sim.Second)
	lossy, clean := sess.Receivers[0], sess.Receivers[1]
	if lossy.Stats().ReportsSent == 0 {
		t.Fatal("lossy receiver must report")
	}
	if clean.Stats().ReportsSent > lossy.Stats().ReportsSent/2 {
		t.Fatalf("clean receiver reported too much: %d vs lossy %d",
			clean.Stats().ReportsSent, lossy.Stats().ReportsSent)
	}
}

func TestCalcRateInfiniteBeforeLoss(t *testing.T) {
	cfg := DefaultConfig()
	_, _, sess := singleBottleneck(1, 125000, 20*sim.Millisecond, 30, cfg, 15)
	if !math.IsInf(sess.Receivers[0].CalcRate(), 1) {
		t.Fatal("CalcRate should be +Inf before any loss")
	}
}
