package tfmcc

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// bareSender builds a sender on a two-node network without receivers so
// unit tests can poke at internals deterministically.
func bareSender(cfg Config) (*sim.Scheduler, *simnet.Network, *Sender) {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(1))
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddDuplex(a, b, 0, sim.Millisecond, 0)
	net.Join(1, b)
	return sch, net, NewSender(net, a, 100, 1, cfg)
}

func TestEchoPriorityOrdering(t *testing.T) {
	_, _, s := bareSender(DefaultConfig())
	// Queue: non-CLR with RTT (class Other), no-RTT (class NoRTT), and a
	// promoted new-CLR entry. Pop order must be newCLR, noRTT, other.
	s.echoQ = []echoEntry{
		{rcvr: 1, class: echoClassOther, rate: 100, valid: true},
		{rcvr: 2, class: echoClassNoRTT, rate: 500, valid: true},
		{rcvr: 3, class: echoClassNewCLR, rate: 900, valid: true},
	}
	want := []ReceiverID{3, 2, 1}
	for i, w := range want {
		e := s.popEcho()
		if !e.valid || e.rcvr != w {
			t.Fatalf("pop %d: got %v, want %v", i, e.rcvr, w)
		}
	}
	// Empty queue falls back to the CLR echo.
	s.clrEcho = echoEntry{rcvr: 7, class: echoClassCLR, valid: true}
	if e := s.popEcho(); e.rcvr != 7 {
		t.Fatalf("fallback echo = %v, want CLR 7", e.rcvr)
	}
}

func TestEchoTieBreakByLowestRate(t *testing.T) {
	_, _, s := bareSender(DefaultConfig())
	s.echoQ = []echoEntry{
		{rcvr: 1, class: echoClassNoRTT, rate: 900, valid: true},
		{rcvr: 2, class: echoClassNoRTT, rate: 100, valid: true},
		{rcvr: 3, class: echoClassNoRTT, rate: 500, valid: true},
	}
	if e := s.popEcho(); e.rcvr != 2 {
		t.Fatalf("tie-break should favour lowest rate, got %v", e.rcvr)
	}
}

func TestEchoQueueBounded(t *testing.T) {
	_, _, s := bareSender(DefaultConfig())
	for i := 0; i < 200; i++ {
		s.queueEcho(Report{From: ReceiverID(i), HasRTT: true}, 0, float64(i))
	}
	if len(s.echoQ) > 64 {
		t.Fatalf("echo queue unbounded: %d", len(s.echoQ))
	}
}

func TestRoundGuardAtLowRate(t *testing.T) {
	// At very low sending rates the feedback delay must stretch to
	// (g+1)·s/X (section 2.5.3).
	got := roundDuration(50*sim.Millisecond, 500) // 0.5 packets/s
	want := sim.FromSeconds(4 * 1000 / 500.0)     // 8s
	if got != want {
		t.Fatalf("guarded T = %v, want %v", got, want)
	}
	// At high rates, T = C·maxRTT.
	if got = roundDuration(50*sim.Millisecond, 1e6); got != 200*sim.Millisecond {
		t.Fatalf("T = %v, want 4*50ms", got)
	}
}

func TestSenderStopHaltsTransmission(t *testing.T) {
	sch, _, s := bareSender(DefaultConfig())
	s.Start()
	sch.RunUntil(2 * sim.Second)
	sent := s.PacketsSent
	s.Stop()
	sch.RunUntil(10 * sim.Second)
	if s.PacketsSent > sent+1 {
		t.Fatalf("sender kept transmitting after Stop: %d -> %d", sent, s.PacketsSent)
	}
}

func TestSenderStartIdempotent(t *testing.T) {
	sch, _, s := bareSender(DefaultConfig())
	s.Start()
	s.Start()
	sch.RunUntil(sim.Second)
	// Initial rate 2000 B/s = 2 packets/s (+1 at t=0).
	if s.PacketsSent > 4 {
		t.Fatalf("double Start doubled the send loop: %d packets", s.PacketsSent)
	}
}

func TestSuppressionEchoIsRunningMinimum(t *testing.T) {
	_, _, s := bareSender(DefaultConfig())
	s.running = true
	s.slowstart = false
	s.updateSuppression(Report{HasLoss: true}, 5000)
	if s.suppressRate != 5000 {
		t.Fatalf("suppressRate = %v", s.suppressRate)
	}
	s.updateSuppression(Report{HasLoss: true}, 8000)
	if s.suppressRate != 5000 {
		t.Fatal("higher rate must not raise the echo")
	}
	s.updateSuppression(Report{HasLoss: true}, 3000)
	if s.suppressRate != 3000 {
		t.Fatal("lower rate must update the echo")
	}
}

func TestSuppressionLossDominatesInSlowstart(t *testing.T) {
	_, _, s := bareSender(DefaultConfig())
	s.running = true
	s.slowstart = true
	s.updateSuppression(Report{HasLoss: false}, 1000)
	if s.suppressLoss {
		t.Fatal("non-loss report should not set suppressLoss")
	}
	// A loss report at a HIGHER rate still takes over the echo.
	s.updateSuppression(Report{HasLoss: true}, 9000)
	if !s.suppressLoss || s.suppressRate != 9000 {
		t.Fatalf("loss report should dominate: %v/%v", s.suppressRate, s.suppressLoss)
	}
	// Later non-loss reports cannot displace it.
	s.updateSuppression(Report{HasLoss: false}, 100)
	if s.suppressRate != 9000 {
		t.Fatal("non-loss report displaced a loss echo")
	}
}

func TestRateClamping(t *testing.T) {
	_, _, s := bareSender(DefaultConfig())
	s.setRate(1)
	if s.rate != MinRate {
		t.Fatalf("rate below floor: %v", s.rate)
	}
}

func TestPickBackupCLRPrefersFreshLowest(t *testing.T) {
	sch, _, s := bareSender(DefaultConfig())
	s.running = true
	s.slowstart = false
	s.roundT = sim.Second
	now := sch.Now()
	s.reports[1] = reportInfo{at: now, rate: 9000, hasRTT: true, rtt: 50 * sim.Millisecond}
	s.reports[2] = reportInfo{at: now, rate: 4000, hasRTT: true, rtt: 60 * sim.Millisecond}
	s.pickBackupCLR(now)
	if s.clr != 2 {
		t.Fatalf("backup CLR = %v, want lowest-rate receiver 2", s.clr)
	}
}

func TestPickBackupCLRIgnoresStale(t *testing.T) {
	sch, _, s := bareSender(DefaultConfig())
	s.running = true
	s.roundT = sim.Second
	sch.At(100*sim.Second, func() {})
	sch.Run()
	// Report far older than 2*CLRTimeoutRounds*roundT = 20s.
	s.reports[1] = reportInfo{at: 10 * sim.Second, rate: 4000}
	s.pickBackupCLR(sch.Now())
	if s.clr != noReceiver {
		t.Fatalf("stale report should not yield a CLR, got %v", s.clr)
	}
}

func TestLeaveOfNonCLRKeepsState(t *testing.T) {
	sch, _, s := bareSender(DefaultConfig())
	s.running = true
	s.clr = 5
	s.clrRate = 1234
	s.reports[3] = reportInfo{at: sch.Now(), rate: 9999}
	s.onLeave(3, sch.Now())
	if s.clr != 5 {
		t.Fatal("non-CLR leave must not touch the CLR")
	}
	if _, ok := s.reports[3]; ok {
		t.Fatal("leave should purge the report table entry")
	}
}

func TestRampCapsIncrease(t *testing.T) {
	sch, _, s := bareSender(DefaultConfig())
	s.running = true
	s.slowstart = false
	s.clr = 1
	s.clrRTT = 100 * sim.Millisecond
	s.rate = 10000
	s.target = 1e6
	s.ensureRamp()
	sch.RunUntil(100 * sim.Millisecond)
	// One tick: +s/RTT = 10000 B/s.
	if math.Abs(s.rate-20000) > 1 {
		t.Fatalf("after one RTT rate = %v, want 20000", s.rate)
	}
	sch.RunUntil(200 * sim.Millisecond)
	if math.Abs(s.rate-30000) > 1 {
		t.Fatalf("after two RTTs rate = %v, want 30000", s.rate)
	}
}

func TestRampStopsWithoutCLR(t *testing.T) {
	sch, _, s := bareSender(DefaultConfig())
	s.running = true
	s.clr = noReceiver
	s.rate = 10000
	s.target = 1e6
	s.ensureRamp()
	sch.RunUntil(10 * sim.Second)
	if s.rate != 10000 {
		t.Fatalf("rate increased without a CLR: %v", s.rate)
	}
}

func TestMaxRTTHoldsWhileReportsLackRTT(t *testing.T) {
	sch, _, s := bareSender(DefaultConfig())
	s.Start()
	s.trackRTT(Report{HasRTT: false}, 700*sim.Millisecond)
	s.trackRTT(Report{HasRTT: true}, 80*sim.Millisecond)
	// Simulate round turnover a few times with a no-RTT report present
	// each round: maxRTT must stay at the conservative initial value.
	for i := 0; i < 6; i++ {
		s.roundNoRTT = true
		s.roundRTT = 80 * sim.Millisecond
		s.advanceRound()
	}
	if s.maxRTT != initialRTT {
		t.Fatalf("maxRTT dropped while receivers lack RTT: %v", s.maxRTT)
	}
	// Four clean rounds later it may shrink.
	for i := 0; i < 4; i++ {
		s.roundNoRTT = false
		s.roundRTT = 80 * sim.Millisecond
		s.advanceRound()
	}
	if s.maxRTT != 80*sim.Millisecond {
		t.Fatalf("maxRTT should track measurements after clean rounds: %v", s.maxRTT)
	}
	sch.RunUntil(sch.Now()) // keep sch referenced
}
